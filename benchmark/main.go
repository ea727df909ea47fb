// Command benchmark is the repo's performance instrument: five workloads,
// seven end-to-end metrics and a per-layer ledger, all timed from outside
// the repo's packages. See README.md in this directory and BENCHMARK.json at
// the root.
//
//	go -C benchmark run . -workload fanin-deep            one run, end-to-end metrics
//	go -C benchmark run . -workload fanin-deep -trace 1   the per-layer ledger
//	go -C benchmark run . -repeat 2                       two full sets + repeatability check
package main

import (
	"flag"
	"fmt"
	"os"
)

const (
	defaultSeconds = 20 // BENCHMARK.json's run_seconds
	// manifestPath is where -repeat reads the bounds: the benchmark runs
	// from the root of the checkout.
	manifestPath = "BENCHMARK.json"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run in this process (empty: every workload, each in a fresh process)")
		seed     = flag.Uint64("seed", 7, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long the timed loop measures (it always times at least 21 trials)")
		trace    = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
		repeat   = flag.Int("repeat", 0, "run N sets in fresh processes and check each end-to-end metric's spread against its bound")
		varySeed = flag.Bool("vary-seed", false, "with -repeat: give set i the seed -seed+i, as the acceptance check does")
		spansOut = flag.String("spans-out", "", "with -trace 1: write every span as a JSON line to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds %g: want a positive number", *seconds))
	}

	if *repeat > 0 || *workload == "" {
		var names []string
		if *workload != "" {
			names = []string{*workload}
		} else {
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		ok, err := runSets(os.Stdout, names, max(*repeat, 1), *seed, *varySeed, *seconds)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, ok := findWorkload(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, minTrials: minTimedTrials}
	if *trace == 1 {
		cfg.trace, cfg.minTrials, cfg.probeSeconds = true, minTracedTrials, *seconds/40
	}
	res, err := run(w, cfg)
	if err != nil {
		fatal(err)
	}
	if *spansOut != "" {
		if err := writeSpansFile(*spansOut, res.spans); err != nil {
			fatal(err)
		}
	}
	printReport(os.Stdout, res)
	if err := printOutcome(os.Stdout, res.outcome()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
