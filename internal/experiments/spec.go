package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/daiet/daiet/internal/runner"
	"github.com/daiet/daiet/internal/stats"
	"github.com/daiet/daiet/internal/topology"
)

// This file is the declarative sweep framework every figure runs on. A
// Spec describes a figure — its axis points, the metrics each point
// reports, and a per-(point, seed) trial function — and the generic engine
// executes it as an ensemble: every point runs at several independent
// seeds (runner.Grid fans the (point, seed) matrix across the worker
// pool), and each metric is reported as mean ± 95% confidence interval
// (stats.MeanCI95). The package-level registry enumerates every figure, so
// cmd/daiet-bench, the benchmark harness, and the determinism tests are a
// single registry-driven loop with no per-figure code.

// Point is one position on a figure's sweep axis. Single-panel figures use
// one point whose X is ignored.
type Point struct {
	Label string
	X     float64
}

// DefaultSeeds is how many independent seeds each point runs when
// RunConfig does not say otherwise — the ensemble behind every confidence
// interval.
const DefaultSeeds = 5

// Spec declares one figure for the sweep engine.
type Spec struct {
	// Name is the registry key and the -experiment flag value.
	Name string
	// Title is the printed header, typically citing the paper's band.
	Title string
	// XLabel names the axis column in the rendered table.
	XLabel string
	// Points is the sweep axis (at least one).
	Points []Point
	// Metrics lists the metric names every trial must report, in canonical
	// printing order.
	Metrics []string
	// Volatile names the subset of Metrics derived from host wall-clock
	// (reduce-phase timings): they are excluded from determinism
	// comparisons, which assert bit-identical results across parallelism
	// degrees and intra-sim worker counts.
	Volatile []string
	// Run executes one trial of pt under the given Trial parameters. It
	// returns a value for every declared metric.
	Run func(pt Point, tr Trial) (map[string]float64, error)
}

// Trial carries one trial's execution parameters into a Spec's Run.
type Trial struct {
	// Seed is the trial's derived seed (same seed, same results).
	Seed uint64
	// Scale in (0, 1] shrinks the problem size (1 = the paper-scale run;
	// smoke tests use small fractions).
	Scale float64
	// SimWorkers partitions each simulated fabric the trial builds into
	// this many parallel event-engine domains (1 = the sequential engine;
	// 0 = autotune: min(rack-cut units, GOMAXPROCS) per fabric). The
	// determinism contract covers it: every non-Volatile metric is
	// byte-identical at any worker count. Figures that do not build a
	// netsim fabric ignore it.
	SimWorkers int
	// Recut enables measured-skew dynamic re-partitioning of each fabric's
	// domain cut (zero value disables). Covered by the same determinism
	// contract: any re-cut schedule replays byte-identically.
	Recut topology.RecutConfig
}

// RunConfig parameterizes one Spec execution.
type RunConfig struct {
	Seed        uint64  // base seed; trial seeds derive via runner.ShardSeed
	Seeds       int     // trials per point (default DefaultSeeds)
	Scale       float64 // problem-size multiplier (default 1)
	Parallelism int     // runner degree (<= 0: GOMAXPROCS, 1: sequential)
	// SimWorkers is the intra-simulation parallelism: each trial's fabric
	// runs partitioned across this many event-engine domains. 0 (the
	// default) autotunes per fabric — min(rack-cut units, GOMAXPROCS), via
	// topology.Plan.AutoPartitions — and 1 forces the sequential engine.
	// It composes with Parallelism (trials × domains goroutines), and
	// never changes results — only wall-clock.
	SimWorkers int
	// Recut enables measured-skew dynamic re-partitioning on every fabric
	// the trials build (zero value disables). Results are unchanged by
	// construction; only the domain cut adapts to measured load.
	Recut topology.RecutConfig
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Seeds <= 0 {
		c.Seeds = DefaultSeeds
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.SimWorkers < 0 {
		c.SimWorkers = 0 // autotune
	}
	return c
}

// PointResult is one executed axis point: every declared metric as a
// multi-seed estimate.
type PointResult struct {
	Point
	Metrics map[string]stats.Estimate
}

// FigureResult is one executed Spec, the unit the generic table printer
// and the determinism rendering consume.
type FigureResult struct {
	Name        string
	Title       string
	XLabel      string
	MetricNames []string
	Seeds       int
	Scale       float64
	Points      []PointResult
}

// Execute runs the spec: every point at cfg.Seeds independent seeds, fanned
// out over the runner pool. Seeds are derived from the trial index alone,
// so all points share the same seed set — paired trials, which tightens
// comparisons along the axis. Results are deterministic at any parallelism
// degree (up to Volatile metrics).
func (s *Spec) Execute(cfg RunConfig) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	if len(s.Points) == 0 {
		return nil, fmt.Errorf("experiments: spec %q has no points", s.Name)
	}
	grid, err := runner.Grid(len(s.Points), cfg.Seeds, cfg.Parallelism,
		func(point, trial int) (map[string]float64, error) {
			seed := runner.ShardSeed(cfg.Seed, trial)
			m, err := s.Run(s.Points[point], Trial{Seed: seed, Scale: cfg.Scale, SimWorkers: cfg.SimWorkers, Recut: cfg.Recut})
			if err != nil {
				return nil, fmt.Errorf("%s[%s] trial %d (seed %#x): %w",
					s.Name, s.Points[point].Label, trial, seed, err)
			}
			return m, nil
		})
	if err != nil {
		return nil, err
	}

	res := &FigureResult{
		Name:        s.Name,
		Title:       s.Title,
		XLabel:      s.XLabel,
		MetricNames: append([]string(nil), s.Metrics...),
		Seeds:       cfg.Seeds,
		Scale:       cfg.Scale,
	}
	for p, trials := range grid {
		pr := PointResult{Point: s.Points[p], Metrics: make(map[string]stats.Estimate, len(s.Metrics))}
		for _, name := range s.Metrics {
			samples := make([]float64, 0, len(trials))
			for trial, m := range trials {
				v, ok := m[name]
				if !ok {
					return nil, fmt.Errorf("experiments: %s[%s] trial %d (seed %#x): omitted metric %q",
						s.Name, s.Points[p].Label, trial, runner.ShardSeed(cfg.Seed, trial), name)
				}
				samples = append(samples, v)
			}
			pr.Metrics[name] = stats.MeanCI95(samples)
		}
		res.Points = append(res.Points, pr)
	}
	return res, nil
}

// WriteTable renders the figure as an aligned text table: one row per axis
// point, one "mean ±margin" column per metric. This is the only figure
// printing code in the repository; cmd/daiet-bench calls it for every
// registry entry.
func (r *FigureResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "\n==== %s ====\n", r.Title)
	fmt.Fprintf(w, "(%d seeds per point, mean ±95%% CI)\n", r.Seeds)
	xl := r.XLabel
	if xl == "" {
		xl = "point"
	}
	fmt.Fprintf(w, "%-16s", xl)
	for _, m := range r.MetricNames {
		fmt.Fprintf(w, " %*s", colWidth(m), m)
	}
	fmt.Fprintln(w)
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%-16s", pt.Label)
		for _, m := range r.MetricNames {
			e := pt.Metrics[m]
			fmt.Fprintf(w, " %*s", colWidth(m), fmt.Sprintf("%.2f ±%.2f", e.Mean, e.Margin()))
		}
		fmt.Fprintln(w)
	}
}

// colWidth sizes a metric column to fit both its header and a formatted
// estimate.
func colWidth(metric string) int {
	const minWidth = 16
	if len(metric)+1 > minWidth {
		return len(metric) + 1
	}
	return minWidth
}

// DeterministicString renders everything the determinism contract covers:
// a header line, then one line per (point, metric) for every metric except
// the Volatile ones, in canonical order, so a diff names the point and the
// metric that moved. The committed figure golden and the determinism
// suites compare these strings.
func (r *FigureResult) DeterministicString(volatile []string) string {
	skip := make(map[string]bool, len(volatile))
	for _, v := range volatile {
		skip[v] = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s seeds=%d scale=%g\n", r.Name, r.Seeds, r.Scale)
	for _, pt := range r.Points {
		for _, m := range r.MetricNames {
			if skip[m] {
				continue
			}
			e := pt.Metrics[m]
			fmt.Fprintf(&b, "%s x=%g %s: n=%d mean=%v se=%v lo=%v hi=%v\n",
				pt.Label, pt.X, m, e.N, e.Mean, e.StdErr, e.Lo, e.Hi)
		}
	}
	return b.String()
}

// ---- registry ----

var registry = map[string]*Spec{}

// Register adds a Spec to the package registry; every figure file calls it
// from init. Duplicate names and malformed specs are programming errors
// and panic at init time.
func Register(s *Spec) {
	switch {
	case s.Name == "":
		panic("experiments: Register: empty spec name")
	case s.Run == nil:
		panic(fmt.Sprintf("experiments: spec %q has no Run", s.Name))
	case len(s.Points) == 0:
		panic(fmt.Sprintf("experiments: spec %q has no points", s.Name))
	case len(s.Metrics) == 0:
		panic(fmt.Sprintf("experiments: spec %q declares no metrics", s.Name))
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("experiments: duplicate spec %q", s.Name))
	}
	for _, v := range s.Volatile {
		found := false
		for _, m := range s.Metrics {
			found = found || m == v
		}
		if !found {
			panic(fmt.Sprintf("experiments: spec %q: volatile %q not in Metrics", s.Name, v))
		}
	}
	registry[s.Name] = s
}

// Specs returns every registered figure sorted by name.
func Specs() []*Spec {
	out := make([]*Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the Spec registered under name, or nil.
func Lookup(name string) *Spec { return registry[name] }

// scaledInt shrinks a full-size quantity by scale with a floor, the shared
// helper spec Run functions use to map the generic scale knob onto their
// problem-size parameters.
func scaledInt(full int, scale float64, floor int) int {
	n := int(float64(full) * scale)
	if n < floor {
		n = floor
	}
	return n
}
