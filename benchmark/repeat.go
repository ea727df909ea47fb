package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// childRun is what one fresh process reported.
type childRun struct {
	outcome
	digest string
}

// parseRun reads a run's standard output: the sim_digest line and, last,
// the result line.
func parseRun(stdout []byte) (childRun, error) {
	var run childRun
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 4 && f[0] == "sim_digest" {
			run.digest = f[3]
		}
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&run.outcome); err != nil {
		return run, fmt.Errorf("result line: %w", err)
	}
	return run, nil
}

// runSets runs every named workload `sets` times, each run in a fresh
// process of this binary, and prints per workload × end-to-end metric the
// relative spread of the runs against the metric's bound. It reports false
// when a run failed a trial, a spread is outside its bound, or — at one seed
// — the simulated results (reducer_pairs_ratio, sim_digest) are not
// identical.
func runSets(out io.Writer, names []string, sets int, seed uint64, varySeed bool, seconds float64) (bool, error) {
	mf, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	printHeader(out)

	runs := map[string][]childRun{}
	ok := true
	for set := 0; set < sets; set++ {
		s := seed
		if varySeed {
			s += uint64(set)
		}
		for _, name := range names {
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return false, fmt.Errorf("set %d: %s: %w", set+1, name, err)
			}
			run, err := parseRun(stdout)
			if err != nil {
				return false, fmt.Errorf("set %d: %s: %w", set+1, name, err)
			}
			fmt.Fprintf(out, "set %d %-18s seed=%d sim_digest=%s attempted=%d failed=%d", set+1, name, s, run.digest, run.Attempted, run.Failed)
			for _, def := range endToEnd {
				fmt.Fprintf(out, " %s=%.6g", def.name, run.Metrics[def.name].Value)
			}
			fmt.Fprintln(out)
			if !run.Correct {
				ok = false
			}
			runs[name] = append(runs[name], run)
		}
	}
	if sets < 2 {
		return ok, nil
	}

	fmt.Fprintf(out, "\n%-18s %-22s %14s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "verdict")
	for _, name := range names {
		for _, mm := range mf.EndToEnd {
			vals := make([]float64, 0, sets)
			for _, r := range runs[name] {
				vals = append(vals, r.Metrics[mm.Name].Value)
			}
			spread := relativeSpread(vals)
			verdict := "ok"
			switch {
			case mm.Name == "setup_s":
				verdict = "not gated"
			case spread > mm.Bound:
				verdict = "OUTSIDE BOUND"
				ok = false
			case spread > mm.Bound/3:
				verdict = "within bound, above a third of it"
			}
			fmt.Fprintf(out, "%-18s %-22s %14.6g %8.3f%% %6.1f%%  %s\n", name, mm.Name, median(vals), 100*spread, 100*mm.Bound, verdict)
		}
		if varySeed {
			continue
		}
		first := runs[name][0]
		for i, r := range runs[name][1:] {
			if r.digest != first.digest || r.Metrics["reducer_pairs_ratio"] != first.Metrics["reducer_pairs_ratio"] {
				fmt.Fprintf(out, "%-18s set %d simulated differently from set 1 at the same seed\n", name, i+2)
				ok = false
			}
		}
	}
	return ok, nil
}

// relativeSpread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's statistics.quantiles(n=4)
// gives them; with fewer than four values, the full range over the median.
func relativeSpread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := median(s)
	if med == 0 {
		return 0
	}
	if len(s) < 4 {
		return math.Abs((s[len(s)-1] - s[0]) / med)
	}
	q := func(i int) float64 { // the exclusive method
		m := len(s)
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs((q(3) - q(1)) / med)
}
