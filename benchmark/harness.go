package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// driver is one workload over one set of generated inputs. trial is the
// timed region: it runs the workload once, through the repo's exported calls
// only, and fills the ledger. verify runs after it, untimed, and compares the
// trial's aggregate with the benchmark's own oracle.
type driver interface {
	trial(rec *recorder, c *counts) error
	verify() error
}

// workloadDef is one benchmark workload: how to generate its inputs from the
// seed. The program under test only ever sees the generated inputs.
type workloadDef struct {
	name  string
	setup func(seed uint64, rec *recorder) (driver, error)
}

var workloads = []workloadDef{
	{"wordcount-daiet", setupWordcountDaiet},
	{"wordcount-baseline", setupWordcountBaseline},
	{"fanin-wide", setupFaninWide},
	{"fanin-deep", setupFaninDeep},
	{"overlap-analytics", setupOverlap},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

const (
	// setupRounds is how often a run sets up: each round generates the
	// inputs and runs one warm-up trial on them, and setup_s is the median
	// round. The rounds double as the warm-up before timing.
	setupRounds = 3
	// A run times at least this many trials however long they take, so the
	// median is the highest percentile with ten samples beyond it. A traced
	// run alternates traced and untraced trials and needs fewer of each.
	minTimedTrials  = 21
	minTracedTrials = 10
	// A traced run spends this share of -seconds on trials, alternating
	// traced and untraced ones; the probes take the rest.
	tracedTrialShare = 0.5
)

type runConfig struct {
	seed      uint64
	seconds   float64 // the timed loop runs until both seconds and minTrials are reached
	minTrials int
	trace     bool
	// probeSeconds is how long each isolated probe measures (traced runs).
	probeSeconds float64
	// afterTrial, when set, runs between a trial and its verification. The
	// test uses it to corrupt an aggregate and see the trial fail.
	afterTrial func(d driver)
}

// runResult is one process's outcome for one workload.
type runResult struct {
	workload  string
	cfg       runConfig
	attempted int
	failed    int
	firstErr  error

	trialMs []float64 // timed trials that passed (traced run: the untraced ones)
	digest  uint64
	metrics map[string]float64
	spans   []span
}

// run is the closed loop with one client: set up, then issue trials back to
// back on this goroutine until cfg.seconds have passed.
func run(w workloadDef, cfg runConfig) (*runResult, error) {
	res := &runResult{workload: w.name, cfg: cfg, metrics: map[string]float64{}}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	var (
		d       driver
		ref     counts // trial 0's ledger: every later trial must match its digest
		haveRef bool
	)
	attempt := func(r *recorder) (time.Duration, counts, bool) {
		var c counts
		mark := r.mark()
		t0 := time.Now()
		err := d.trial(r, &c)
		dt := time.Since(t0)
		res.attempted++
		if err == nil {
			if cfg.afterTrial != nil {
				cfg.afterTrial(d)
			}
			err = d.verify()
		}
		if err == nil {
			switch digest := c.digest(); {
			case !haveRef:
				ref, haveRef, res.digest = c, true, digest
			case digest != res.digest:
				err = fmt.Errorf("sim_digest %016x differs from trial 0's %016x", digest, res.digest)
			}
		}
		if err != nil {
			r.rollback(mark)
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			return dt, c, false
		}
		return dt, c, true
	}

	setupS := make([]float64, 0, setupRounds)
	for round := 0; round < setupRounds; round++ {
		// Collect the previous round's inputs first: three live copies are
		// the benchmark's doing and would otherwise set peak_rss_mb.
		d = nil
		runtime.GC()
		rec.setTrial(int32(-1 - round))
		t0 := time.Now()
		nd, err := w.setup(cfg.seed, rec)
		gen := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d = nd
		warm, _, _ := attempt(nil)
		setupS = append(setupS, (gen + warm).Seconds())
	}

	budget := cfg.seconds
	if cfg.trace {
		budget *= tracedTrialShare
	}
	var (
		tracedMs, reduceMs []float64
		timedNs            time.Duration
		loopTrials         int
		before, after      runtime.MemStats
	)
	runtime.GC() // start the loop from a heap without set-up garbage
	runtime.ReadMemStats(&before)
	loopStart := time.Now()
	for i := 0; i < cfg.minTrials || time.Since(loopStart).Seconds() < budget; i++ {
		var r *recorder
		if cfg.trace && i%2 == 0 {
			r = rec
			rec.setTrial(int32(i))
		}
		dt, c, ok := attempt(r)
		loopTrials++
		if !ok {
			continue
		}
		ms := float64(dt) / 1e6
		if r != nil {
			tracedMs = append(tracedMs, ms)
		} else {
			res.trialMs = append(res.trialMs, ms)
		}
		timedNs += dt
		reduceMs = append(reduceMs, float64(c.reduceNs)/1e6)
	}
	runtime.ReadMemStats(&after)

	m := res.metrics
	passed := float64(len(res.trialMs) + len(tracedMs))
	pairs := float64(ref.pairs)
	m["setup_s"] = median(setupS)
	m["trial_ms_p50"] = median(res.trialMs)
	m["pairs_per_sec"] = ratio(pairs*passed, timedNs.Seconds())
	m["allocs_per_pair"] = ratio(float64(after.Mallocs-before.Mallocs), pairs*float64(loopTrials))
	m["alloc_bytes_per_pair"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), pairs*float64(loopTrials))
	m["reducer_pairs_ratio"] = ratio(float64(ref.reducerPairs), pairs)

	if cfg.trace {
		res.spans = rec.spans
		if err := checkSpans(res.spans); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		for name, perRound := range selfMsByTrial(res.spans, true) {
			m[name+"_ms"] = median(perRound)
		}
		for name, perTrial := range selfMsByTrial(res.spans, false) {
			m[name+"_ms"] = median(perTrial)
		}
		m["mapreduce.reduce_ms"] = median(reduceMs)
		ref.metricsInto(m, m["netsim.run_ms"])
		n := float64(loopTrials)
		m["go.gc_cycles"] = float64(after.NumGC-before.NumGC) / n
		m["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / n
		m["go.mallocs"] = float64(after.Mallocs-before.Mallocs) / n
		m["benchmark.trace_overhead_pct"] = 100 * ratio(median(tracedMs)-median(res.trialMs), median(res.trialMs))
		if err := runProbes(cfg.seed, cfg.probeSeconds, m); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
	}
	// Last, so that everything the run did is under the high-water mark.
	m["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// median returns the middle value (the mean of the middle two for an even
// count), 0 for no values.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
