// daiet-bench regenerates every figure in the paper's evaluation (plus the
// repository's extensions) through the declarative sweep framework in
// internal/experiments: each figure is a registered Spec, executed as a
// multi-seed ensemble and reported as mean ± 95% confidence interval per
// metric. This command contains no per-figure code — it is one loop over
// the registry.
//
// Usage:
//
//	daiet-bench                            # every registered figure
//	daiet-bench -experiment fig3           # one figure by registry name
//	daiet-bench -seeds 10                  # wider ensembles
//	daiet-bench -scale 0.25                # smaller problem sizes
//	daiet-bench -telemetry out/            # record fabric timelines too
//	daiet-bench -cpuprofile cpu.pprof      # profile the whole run
//
// -seed fixes the base seed (per-trial seeds derive from it, so the same
// seed reproduces the same intervals); -parallel sets the sharded runner's
// worker-pool degree (0 = GOMAXPROCS, 1 = sequential) and -sim-workers the
// intra-simulation partition degree (event-engine domains per fabric;
// "auto" lets every fabric pick min(rack-cut units, GOMAXPROCS)) — results
// are identical at any combination.
//
// -telemetry <dir> additionally replays every registered timeline spec
// (internal/experiments.TimelineSpecs) with the sim-time recorder attached
// and writes each timeline as <dir>/<name>_timeline.txt (render with
// cmd/daiet-trace).
//
// -cpuprofile, -memprofile and -exectrace write standard runtime/pprof and
// runtime/trace captures of the whole run for go tool pprof / go tool
// trace; they compose with every other flag.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strconv"
	"strings"

	"github.com/daiet/daiet/internal/experiments"
	"github.com/daiet/daiet/internal/runner"
)

var (
	experiment = flag.String("experiment", "all", "registry name of the figure to run, or \"all\"")
	seed       = flag.Uint64("seed", 7, "base experiment seed (same seed, same results)")
	seeds      = flag.Int("seeds", experiments.DefaultSeeds, "independent seeds per figure point (the CI ensemble)")
	scale      = flag.Float64("scale", 1.0, "problem-size multiplier (1 = paper scale)")
	parallel   = flag.Int("parallel", 0, "experiment-runner parallelism (0 = GOMAXPROCS, 1 = sequential)")
	simWorkers = flag.String("sim-workers", "1", "intra-simulation parallelism: event-engine domains per fabric, or \"auto\" for min(rack-cut units, GOMAXPROCS) per fabric (results identical at any value)")
	telemetry  = flag.String("telemetry", "", "directory for recorded fabric timelines (<name>_timeline.txt per timeline spec); empty disables recording")
	cpuProfile = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the whole run to this path")
	memProfile = flag.String("memprofile", "", "write a runtime/pprof heap profile (after the run) to this path")
	execTrace  = flag.String("exectrace", "", "write a runtime/trace execution trace of the whole run to this path")
)

// parseSimWorkers maps the -sim-workers flag onto the RunConfig knob:
// "auto" (or 0) selects per-fabric autotuning, anything else is an
// explicit domain count.
func parseSimWorkers(s string) (int, error) {
	if s == "auto" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("-sim-workers: want a non-negative integer or \"auto\", got %q", s)
	}
	return n, nil
}

func main() {
	log.SetFlags(0)
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is main's body, factored out so the deferred profile writers flush
// before the process exits — log.Fatal inside would truncate them.
func run() error {
	simW, err := parseSimWorkers(*simWorkers)
	if err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			return fmt.Errorf("-exectrace: %w", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("-exectrace: %w", err)
		}
		defer trace.Stop()
	}

	var specs []*experiments.Spec
	for _, s := range experiments.Specs() {
		if *experiment == "all" || *experiment == s.Name {
			specs = append(specs, s)
		}
	}
	if len(specs) == 0 {
		var names []string
		for _, s := range experiments.Specs() {
			names = append(names, s.Name)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown experiment %q (registered: %s)", *experiment, strings.Join(names, ", "))
	}

	// Figures fan out across the runner's pool; when several run
	// concurrently, each figure's inner grid is pinned to 1 worker so the
	// -parallel budget is spent once — otherwise outer and inner fan-out
	// would compound to parallel² goroutines.
	figParallel := *parallel
	if len(specs) > 1 && runner.Degree(*parallel) > 1 {
		figParallel = 1
	}

	// Each shard renders into its own buffer so interleaved execution still
	// prints in canonical (registry) order.
	tables, err := runner.Map(len(specs), *parallel, func(shard int) ([]byte, error) {
		res, err := specs[shard].Execute(experiments.RunConfig{
			Seed:        *seed,
			Seeds:       *seeds,
			Scale:       *scale,
			Parallelism: figParallel,
			SimWorkers:  simW,
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		res.WriteTable(&buf)
		return buf.Bytes(), nil
	})
	if err != nil {
		return err
	}
	for _, table := range tables {
		os.Stdout.Write(table)
	}

	if *telemetry != "" {
		if err := recordTimelines(*telemetry, simW); err != nil {
			return err
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

// recordTimelines replays every registered timeline spec with the
// recorder attached and writes <dir>/<name>_timeline.txt.
func recordTimelines(dir string, simW int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("-telemetry: %w", err)
	}
	for _, spec := range experiments.TimelineSpecs() {
		tl, err := spec.Run(experiments.Trial{Seed: *seed, Scale: *scale, SimWorkers: simW})
		if err != nil {
			return fmt.Errorf("timeline %s: %w", spec.Name, err)
		}
		path := filepath.Join(dir, spec.Name+"_timeline.txt")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("timeline %s: %w", spec.Name, err)
		}
		if _, err := tl.WriteTo(f); err != nil {
			f.Close()
			return fmt.Errorf("timeline %s: %w", spec.Name, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("timeline %s: %w", spec.Name, err)
		}
		fmt.Printf("recorded %s (%d records, %d engine samples)\n",
			path, len(tl.Records), len(tl.Engine))
	}
	return nil
}
