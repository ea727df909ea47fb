package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/daiet/daiet/internal/topology"
)

// The runner's contract: for the same seed, every figure entry point must
// produce byte-identical summaries and counters whether its shards run
// sequentially (parallelism 1) or across the full worker pool. Wall-clock
// fields (reduce-phase timing) are the only nondeterministic quantities and
// are excluded where they appear.

// degrees are the parallelism levels compared against the sequential run.
var degrees = []int{runtime.GOMAXPROCS(0), 3}

func assertIdentical(t *testing.T, name, seq, par string, degree int) {
	t.Helper()
	if seq != par {
		t.Fatalf("%s diverged at parallelism %d:\nsequential: %s\nparallel:   %s",
			name, degree, seq, par)
	}
}

func TestWorkerSweepDeterministic(t *testing.T) {
	seqPts, err := Figure1WorkerSweep(7, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := fmt.Sprintf("%+v", seqPts)
	for _, d := range degrees {
		parPts, err := Figure1WorkerSweep(7, 30, d)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "worker sweep", seq, fmt.Sprintf("%+v", parPts), d)
	}
}

func TestFigure1cDeterministic(t *testing.T) {
	render := func(parallelism int) string {
		fig, err := Figure1c(Figure1cConfig{Seed: 2, Scale: 12, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v %+v %+v v=%d e=%d",
			fig.PageRank, fig.SSSP, fig.WCC, fig.Vertices, fig.Edges)
	}
	seq := render(1)
	for _, d := range degrees {
		assertIdentical(t, "figure 1(c)", seq, render(d), d)
	}
}

func TestFigure3Deterministic(t *testing.T) {
	// Everything except the wall-clock reduce timings must match exactly:
	// the summaries, raw samples, corpus facts, and switch counters.
	render := func(parallelism int) string {
		res, err := Figure3(Figure3Config{Seed: 1, Scale: 0.2, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v %+v %+v data=%v udp=%v tcp=%v words=%d uniq=%d in=%d spill=%d",
			res.DataReduction, res.PacketsVsUDP, res.PacketsVsTCP,
			res.Samples.DataReduction, res.Samples.PacketsVsUDP, res.Samples.PacketsVsTCP,
			res.TotalWords, res.UniqueWords, res.PairsIn, res.PairsSpilled)
	}
	seq := render(1)
	for _, d := range degrees {
		assertIdentical(t, "figure 3", seq, render(d), d)
	}
}

func TestAblationsDeterministic(t *testing.T) {
	renderReg := func(parallelism int) string {
		pts, err := AblationRegisterSize(3, []int{64, 1024}, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", pts)
	}
	renderPairs := func(parallelism int) string {
		pts, err := AblationPairsPerPacket(3, []int{2, 10}, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", pts)
	}
	renderWidth := func(parallelism int) string {
		pts, err := AblationKeyWidth(3, []int{8, 16}, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", pts)
	}
	seqReg, seqPairs, seqWidth := renderReg(1), renderPairs(1), renderWidth(1)
	for _, d := range degrees {
		assertIdentical(t, "register-size ablation", seqReg, renderReg(d), d)
		assertIdentical(t, "pairs-per-packet ablation", seqPairs, renderPairs(d), d)
		assertIdentical(t, "key-width ablation", seqWidth, renderWidth(d), d)
	}
}

// TestSpecEngineDeterministic extends the contract to the sweep engine:
// every registered figure, executed through Spec.Execute at any
// parallelism degree with per-fabric autotuned domains, must match its
// golden section (up to declared Volatile metrics). This covers the
// figures' own inner fan-out too, since the specs pin it to 1 and put all
// parallelism in the grid.
func TestSpecEngineDeterministic(t *testing.T) {
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, d := range degrees {
				t.Run(fmt.Sprintf("parallel-%d", d), func(t *testing.T) {
					cfg := goldenCfg
					cfg.Parallelism, cfg.SimWorkers = d, 0 // 0: autotuned domains
					checkFigureGolden(t, spec, cfg)
				})
			}
		})
	}
}

func TestMultiRackDeterministic(t *testing.T) {
	render := func(parallelism int) string {
		res, err := MultiRack(MultiRackConfig{Seed: 5, Vocab: 300, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", *res)
	}
	seq := render(1)
	for _, d := range degrees {
		assertIdentical(t, "multirack", seq, render(d), d)
	}
}

// ---- intra-simulation (partitioned event engine) conformance ----
//
// The contract extends inside a single simulation: partitioning one fabric
// across event-engine domains (netsim.Network.Partition) must leave every
// non-volatile result byte-identical to the sequential engine's golden
// section. simWorkerCounts are the domain counts compared.

var simWorkerCounts = []int{2, 4}

// TestSpecEngineSimWorkersDeterministic is the registry-wide conformance
// suite: every figure, executed through Spec.Execute on fabrics partitioned
// into 2 and 4 domains (with the trial-level worker pool layered on top),
// matches its golden section.
func TestSpecEngineSimWorkersDeterministic(t *testing.T) {
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, w := range simWorkerCounts {
				for _, par := range []int{1, 3} {
					t.Run(fmt.Sprintf("sim-workers-%d/parallel-%d", w, par), func(t *testing.T) {
						cfg := goldenCfg
						cfg.SimWorkers, cfg.Parallelism = w, par
						checkFigureGolden(t, spec, cfg)
					})
				}
			}
		})
	}
}

// renderMultiRack renders the full result struct — every counter, not
// just the registry metrics — at one domain count.
func renderMultiRack(t *testing.T, simWorkers int) string {
	t.Helper()
	res, err := MultiRack(MultiRackConfig{Seed: 5, Vocab: 300, Parallelism: 1, SimWorkers: simWorkers})
	if err != nil {
		t.Fatal(err)
	}
	return fieldLines(*res)
}

// TestMultiRackSimWorkersDeterministic compares the full result struct
// across domain counts with the sequential golden reference.
func TestMultiRackSimWorkersDeterministic(t *testing.T) {
	for _, w := range simWorkerCounts {
		t.Run(fmt.Sprintf("sim-workers-%d", w), func(t *testing.T) {
			checkGolden(t, refSection("multirack"), renderMultiRack(t, w))
		})
	}
}

// renderIncast renders an 8-sender incast with overflowing queues; pool
// switches the switch to shared-memory DT admission (IncastConfig.PoolBytes),
// where the ACK and flush streams contend in one pool.
func renderIncast(t *testing.T, pool bool, simWorkers int) string {
	t.Helper()
	cfg := IncastConfig{Seed: 3, Senders: 8, PairsPerSender: 300, QueueBytes: 4096, SimWorkers: simWorkers}
	if pool {
		cfg.PoolBytes, cfg.PoolAlpha = 16<<10, 0.5
	}
	res, err := Incast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Cfg.SimWorkers = 0 // the knob itself is the only allowed difference
	return fieldLines(*res)
}

// TestIncastSimWorkersDeterministic covers the loss/retransmission path:
// drop counts, retransmissions and virtual completion time must survive
// partitioning bit-for-bit even under synchronized fan-in with overflowing
// queues.
func TestIncastSimWorkersDeterministic(t *testing.T) {
	for _, w := range simWorkerCounts {
		t.Run(fmt.Sprintf("sim-workers-%d", w), func(t *testing.T) {
			checkGolden(t, refSection("incast"), renderIncast(t, false, w))
		})
	}
}

// TestIncastPoolSimWorkersDeterministic is the same contract with the
// switch running shared-memory DT admission: every counter still replays
// identically across domain counts.
func TestIncastPoolSimWorkersDeterministic(t *testing.T) {
	for _, w := range simWorkerCounts {
		t.Run(fmt.Sprintf("sim-workers-%d", w), func(t *testing.T) {
			checkGolden(t, refSection("incast-pool"), renderIncast(t, true, w))
		})
	}
}

// TestSpecEngineRecutDeterministic extends the registry-wide conformance
// suite with dynamic re-partitioning: every figure, executed with a live
// measured-skew re-cut policy on a seeded random schedule at 2 and 4
// domains, matches its golden section. Figures that pin their own engine
// configuration (parallel-sim, megaincast) ignore the knob and pass
// trivially; every fabric-building figure that honors Trial.Recut is
// exercised for real.
func TestSpecEngineRecutDeterministic(t *testing.T) {
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, w := range simWorkerCounts {
				for _, recutSeed := range []uint64{1, 42} {
					t.Run(fmt.Sprintf("sim-workers-%d/recut-seed-%d", w, recutSeed), func(t *testing.T) {
						cfg := goldenCfg
						cfg.SimWorkers = w
						cfg.Recut = topology.RecutConfig{
							Every:      3 * time.Microsecond,
							MinSkewPct: 0, // re-cut on any measured imbalance
							Seed:       recutSeed,
						}
						checkFigureGolden(t, spec, cfg)
					})
				}
			}
		})
	}
}
