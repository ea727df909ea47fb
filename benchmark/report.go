package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// printHeader records the hardware and toolchain a number was taken on.
func printHeader(w io.Writer) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	fmt.Fprintf(w, "# cpu: %s | nproc=%d GOMAXPROCS=%d | %s | GOGC=%s | commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gogc, vcsRevision())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// vcsRevision is the commit the toolchain stamped into the binary; a
// checkout that is not a git repository has none.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// printReport writes the human-readable part of one run: header, trial
// statistics, the simulated fingerprint and every metric of the run's kind
// by name with its unit.
func printReport(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "# daiet benchmark: workload=%s seed=%d seconds=%g trace=%t\n",
		res.workload, res.cfg.seed, res.cfg.seconds, res.cfg.trace)
	printHeader(w)
	fmt.Fprintf(w, "# trials: K=%d timed", len(res.trialMs))
	if res.cfg.trace {
		fmt.Fprintf(w, " untraced (alternating with as many traced)")
	}
	fmt.Fprintf(w, ", %d attempted with %d set-up rounds, %d failed\n", res.attempted, setupRounds, res.failed)
	if res.firstErr != nil {
		fmt.Fprintf(w, "# first failure: %v\n", res.firstErr)
	}
	fmt.Fprintf(w, "# trial_ms: min=%.3f p25=%.3f p50=%.3f p75=%.3f max=%.3f\n",
		quantile(res.trialMs, 0), quantile(res.trialMs, 0.25), quantile(res.trialMs, 0.5),
		quantile(res.trialMs, 0.75), quantile(res.trialMs, 1))
	fmt.Fprintf(w, "sim_digest %s seed=%d %016x\n", res.workload, res.cfg.seed, res.digest)
	for _, def := range res.defs() {
		fmt.Fprintf(w, "%-42s %18.6f %s\n", def.name, res.metrics[def.name], def.unit)
	}
}

// defs is the metric list the run reports: end-to-end untraced, per-layer
// traced.
func (res *runResult) defs() []metricDef {
	if res.cfg.trace {
		return perLayer
	}
	return endToEnd
}

// outcome is the contract's result line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *runResult) outcome() outcome {
	o := outcome{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, def := range res.defs() {
		o.Metrics[def.name] = metricValue{Value: res.metrics[def.name], Unit: def.unit}
	}
	return o
}

// printOutcome writes the result as the last line of standard output.
func printOutcome(w io.Writer, o outcome) error {
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
