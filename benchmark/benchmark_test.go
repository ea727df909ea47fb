package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"regexp"
	"testing"
)

// smallWorkloads are the five workloads on shrunken inputs: the same
// drivers, spans and oracles, a few milliseconds per trial.
func smallWorkloads() []workloadDef {
	fanin := faninSizes{racks: 2, spines: 1, senders: 8, pairsPerSender: 40, vocab: 64, table: 32, poolBytes: 64 << 10}
	return []workloadDef{
		{"wordcount-daiet", func(seed uint64, rec *recorder) (driver, error) {
			return newWordcountDriver(seed, 40, modesDaiet, rec)
		}},
		{"wordcount-baseline", func(seed uint64, rec *recorder) (driver, error) {
			return newWordcountDriver(seed, 40, modesBaseline, rec)
		}},
		{"fanin-wide", func(seed uint64, rec *recorder) (driver, error) {
			return newFaninDriver(seed, fanin, rec), nil
		}},
		{"fanin-deep", func(seed uint64, rec *recorder) (driver, error) {
			deep := fanin
			deep.pairsPerSender = 400
			return newFaninDriver(seed, deep, rec), nil
		}},
		{"overlap-analytics", func(seed uint64, rec *recorder) (driver, error) {
			return newOverlapDriver(seed, overlapSizes{samples: 600, steps: 12, graphScale: 8}, rec)
		}},
	}
}

func smallConfig(trace bool) runConfig {
	return runConfig{seed: 7, minTrials: 2, trace: trace, probeSeconds: 0.0005}
}

func loadManifest(t *testing.T) *manifest {
	t.Helper()
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return mf
}

// TestManifestMatchesTables holds BENCHMARK.json and the Go metric and
// workload tables together, and checks the contract's limits on names, units
// and bounds.
func TestManifestMatchesTables(t *testing.T) {
	mf := loadManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if mf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", mf.RunSeconds, defaultSeconds)
	}
	seen := map[string]bool{}
	unique := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}

	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the benchmark has %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		unique("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in the manifest, %q in the benchmark", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind string, listed []manifestMetric, defs []metricDef, bounded bool) {
		t.Helper()
		if len(listed) != len(defs) {
			t.Fatalf("manifest lists %d %s metrics, the benchmark reports %d", len(listed), kind, len(defs))
		}
		for i, mm := range listed {
			unique(kind, mm.Name)
			def := defs[i]
			if mm.Name != def.name || mm.Unit != def.unit || mm.Better != def.better {
				t.Errorf("%s metric %d: manifest %+v, benchmark %+v", kind, i, mm, def)
			}
			if !unitRE.MatchString(mm.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", mm.Name, mm.Unit)
			}
			if mm.Better != "lower" && mm.Better != "higher" {
				t.Errorf("%s: better = %q", mm.Name, mm.Better)
			}
			if bounded && (mm.Bound <= 0 || mm.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", mm.Name, mm.Bound)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd, true)
	check("per_layer", mf.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for _, mm := range mf.EndToEnd {
		if mm.Name == "setup_s" {
			if mm.Unit != "s" || mm.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better: %+v", mm)
			}
			for _, other := range mf.EndToEnd {
				if other.Bound > mm.Bound {
					t.Errorf("setup_s has bound %g, %s a larger one (%g)", mm.Bound, other.Name, other.Bound)
				}
			}
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload for two timed
// trials, untraced and traced, and checks the result line against the
// manifest: exactly the contract's keys, every metric of the run's kind by
// name with its unit, nothing else.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	mf := loadManifest(t)
	for _, w := range smallWorkloads() {
		for _, trace := range []bool{false, true} {
			res, err := run(w, smallConfig(trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if res.failed != 0 || res.attempted != setupRounds+2 {
				t.Errorf("%s trace=%t: attempted %d, failed %d (%v)", w.name, trace, res.attempted, res.failed, res.firstErr)
			}

			var report bytes.Buffer
			printReport(&report, res)
			if err := printOutcome(&report, res.outcome()); err != nil {
				t.Fatal(err)
			}
			parsed, err := parseRun(report.Bytes())
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", w.name, trace, err, report.Bytes())
			}
			if !parsed.Correct || parsed.Attempted != res.attempted || parsed.Failed != 0 {
				t.Errorf("%s trace=%t: result line says %+v", w.name, trace, parsed.outcome)
			}
			if want := fmt.Sprintf("%016x", res.digest); parsed.digest != want || res.digest == 0 {
				t.Errorf("%s trace=%t: sim_digest reported as %q, the run's is %s", w.name, trace, parsed.digest, want)
			}

			lines := bytes.Split(bytes.TrimSpace(report.Bytes()), []byte("\n"))
			var top map[string]json.RawMessage
			if err := json.Unmarshal(lines[len(lines)-1], &top); err != nil {
				t.Fatal(err)
			}
			if len(top) != 4 {
				t.Errorf("%s trace=%t: result line has keys %v", w.name, trace, top)
			}

			listed := mf.EndToEnd
			if trace {
				listed = mf.PerLayer
			}
			if len(parsed.Metrics) != len(listed) {
				t.Errorf("%s trace=%t: %d metrics reported, manifest lists %d", w.name, trace, len(parsed.Metrics), len(listed))
			}
			for _, mm := range listed {
				got, ok := parsed.Metrics[mm.Name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s missing", w.name, trace, mm.Name)
					continue
				}
				if got.Unit != mm.Unit {
					t.Errorf("%s: unit %q, manifest %q", mm.Name, got.Unit, mm.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%t: %s = %v", w.name, trace, mm.Name, got.Value)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, mm.Name, got.Value)
				}
			}
			if !trace {
				continue
			}
			// The traced path: spans nest, and no self time is negative.
			if len(res.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
			if err := checkSpans(res.spans); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			for _, s := range res.spans {
				if _, ok := parsed.Metrics[s.Name+"_ms"]; !ok {
					t.Errorf("%s: span %q has no per-layer metric", w.name, s.Name)
				}
			}
			// What overlap-analytics is for: no fabric at all.
			if ev := res.metrics["netsim.events"]; (ev == 0) != (w.name == "overlap-analytics") {
				t.Errorf("%s: netsim.events = %v", w.name, ev)
			}
		}
	}
}

// TestCorruptedAggregateFailsTrial corrupts one timed trial's aggregate in
// every workload and expects exactly that trial to count as failed.
func TestCorruptedAggregateFailsTrial(t *testing.T) {
	for _, w := range smallWorkloads() {
		cfg := smallConfig(false)
		calls := 0
		cfg.afterTrial = func(d driver) {
			calls++
			if calls != setupRounds+1 { // the first timed trial
				return
			}
			switch d := d.(type) {
			case *wordcountDriver:
				d.last[0].PerReducer[0].Output[0].Value++
			case *faninDriver:
				for k := range d.got {
					d.got[k]++
					break
				}
			case *overlapDriver:
				d.pr.Values[0] += 1
			default:
				t.Fatalf("%s: unknown driver %T", w.name, d)
			}
		}
		res, err := run(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 1 || res.attempted != setupRounds+2 || res.firstErr == nil {
			t.Errorf("%s: attempted %d, failed %d, first error %v", w.name, res.attempted, res.failed, res.firstErr)
		}
		if o := res.outcome(); o.Correct || o.Failed != 1 {
			t.Errorf("%s: result line says %+v", w.name, o)
		}
	}
}

// scriptedDriver returns what the test scripts for each call.
type scriptedDriver struct {
	calls  int
	events func(call int) uint64
	err    func(call int) error
}

func (d *scriptedDriver) trial(_ *recorder, c *counts) error {
	d.calls++
	c.pairs, c.reducerPairs, c.events = 10, 5, d.events(d.calls)
	return d.err(d.calls)
}

func (d *scriptedDriver) verify() error { return nil }

// TestDigestAndErrorsFailTrials: a trial whose simulated counts differ from
// trial 0's fails, and so does one whose repo call returns an error.
func TestDigestAndErrorsFailTrials(t *testing.T) {
	d := &scriptedDriver{
		events: func(call int) uint64 {
			if call == 4 {
				return 101
			}
			return 100
		},
		err: func(call int) error {
			if call == 5 {
				return errors.New("repo call failed")
			}
			return nil
		},
	}
	w := workloadDef{"scripted", func(uint64, *recorder) (driver, error) { return d, nil }}
	res, err := run(w, smallConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != 5 || res.failed != 2 {
		t.Errorf("attempted %d, failed %d; want 5 and 2", res.attempted, res.failed)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "grandchild", Start: 20, End: 30, Parent: 1},
		{Name: "child", Start: 50, End: 70, Parent: 0},
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	for i, want := range []int64{50, 20, 10, 20} {
		if self[i] != want {
			t.Errorf("self time of span %d = %d, want %d", i, self[i], want)
		}
	}
	// Self times add up to the root's duration: nothing counted twice.
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, the root lasts 100", sum)
	}
	byName := selfMsByTrial(spans, false)
	if got := byName["child"][0]; got != 40e-6 {
		t.Errorf("child self time per trial = %v ms, want 40e-6", got)
	}

	outside := []span{{Name: "p", Start: 0, End: 10, Parent: -1}, {Name: "c", Start: 5, End: 15, Parent: 0}}
	if checkSpans(outside) == nil {
		t.Error("a child ending after its parent passed the check")
	}
	overfull := []span{{Name: "p", Start: 0, End: 10, Parent: -1},
		{Name: "c", Start: 0, End: 8, Parent: 0}, {Name: "c", Start: 2, End: 9, Parent: 0}}
	if checkSpans(overfull) == nil {
		t.Error("children covering more than their parent passed the check")
	}
}

// TestRelativeSpread pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestRelativeSpread(t *testing.T) {
	// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got := relativeSpread(vals); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := relativeSpread([]float64{100, 102}); math.Abs(got-2.0/101) > 1e-12 {
		t.Errorf("spread of two values = %v, want range over median", got)
	}
}
