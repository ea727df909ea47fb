package experiments

import (
	"fmt"
	"runtime"
	"testing"
)

// The runner's contract: for the same seed, every figure entry point must
// produce byte-identical summaries and counters whether its shards run
// sequentially (parallelism 1) or across the full worker pool. Wall-clock
// fields (reduce-phase timing) are the only nondeterministic quantities and
// are excluded where they appear.

// degrees are the parallelism levels compared against the sequential run.
var degrees = []int{runtime.GOMAXPROCS(0), 3}

// assertDegreesIdentical renders at parallelism 1, then at each of degrees
// in a subtest of its own, and requires every render to equal the first.
func assertDegreesIdentical(t *testing.T, name string, render func(t *testing.T, parallelism int) string) {
	t.Helper()
	seq := render(t, 1)
	for _, d := range degrees {
		t.Run(fmt.Sprintf("parallel-%d", d), func(t *testing.T) {
			if par := render(t, d); seq != par {
				t.Fatalf("%s diverged at parallelism %d:\nsequential: %s\nparallel:   %s",
					name, d, seq, par)
			}
		})
	}
}

func TestWorkerSweepDeterministic(t *testing.T) {
	assertDegreesIdentical(t, "worker sweep", func(t *testing.T, parallelism int) string {
		pts, err := Figure1WorkerSweep(7, 30, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", pts)
	})
}

func TestFigure1cDeterministic(t *testing.T) {
	render := func(t *testing.T, parallelism int) string {
		fig, err := Figure1c(Figure1cConfig{Seed: 2, Scale: 12, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v %+v %+v v=%d e=%d",
			fig.PageRank, fig.SSSP, fig.WCC, fig.Vertices, fig.Edges)
	}
	assertDegreesIdentical(t, "figure 1(c)", render)
}

func TestFigure3Deterministic(t *testing.T) {
	// Everything except the wall-clock reduce timings must match exactly:
	// the summaries, raw samples, corpus facts, and switch counters.
	render := func(t *testing.T, parallelism int) string {
		res, err := Figure3(Figure3Config{Seed: 1, Scale: 0.2, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v %+v %+v data=%v udp=%v tcp=%v words=%d uniq=%d in=%d spill=%d",
			res.DataReduction, res.PacketsVsUDP, res.PacketsVsTCP,
			res.Samples.DataReduction, res.Samples.PacketsVsUDP, res.Samples.PacketsVsTCP,
			res.TotalWords, res.UniqueWords, res.PairsIn, res.PairsSpilled)
	}
	assertDegreesIdentical(t, "figure 3", render)
}

func TestAblationsDeterministic(t *testing.T) {
	renderReg := func(t *testing.T, parallelism int) string {
		pts, err := AblationRegisterSize(3, []int{64, 1024}, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", pts)
	}
	renderPairs := func(t *testing.T, parallelism int) string {
		pts, err := AblationPairsPerPacket(3, []int{2, 10}, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", pts)
	}
	renderWidth := func(t *testing.T, parallelism int) string {
		pts, err := AblationKeyWidth(3, []int{8, 16}, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", pts)
	}
	t.Run("register-size", func(t *testing.T) { assertDegreesIdentical(t, "register-size ablation", renderReg) })
	t.Run("pairs-per-packet", func(t *testing.T) { assertDegreesIdentical(t, "pairs-per-packet ablation", renderPairs) })
	t.Run("key-width", func(t *testing.T) { assertDegreesIdentical(t, "key-width ablation", renderWidth) })
}

// TestSpecEngineDeterministic extends the contract to the sweep engine:
// every registered figure, executed through Spec.Execute at any
// parallelism degree, must match its golden section (up to declared Volatile metrics). This covers the
// figures' own inner fan-out too, since the specs pin it to 1 and put all
// parallelism in the grid.
func TestSpecEngineDeterministic(t *testing.T) {
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, d := range degrees {
				t.Run(fmt.Sprintf("parallel-%d", d), func(t *testing.T) {
					cfg := goldenCfg
					cfg.Parallelism = d
					checkFigureGolden(t, spec, cfg)
				})
			}
		})
	}
}

func TestMultiRackDeterministic(t *testing.T) {
	render := func(t *testing.T, parallelism int) string {
		res, err := MultiRack(MultiRackConfig{Seed: 5, Vocab: 300, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", *res)
	}
	assertDegreesIdentical(t, "multirack", render)
}

// renderMultiRack renders the full result struct — every counter, not
// just the registry metrics.
func renderMultiRack(t *testing.T) string {
	t.Helper()
	res, err := MultiRack(MultiRackConfig{Seed: 5, Vocab: 300, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return fieldLines(*res)
}

// renderIncast renders an 8-sender incast with overflowing queues; pool
// switches the switch to shared-memory DT admission (IncastConfig.PoolBytes),
// where the ACK and flush streams contend in one pool.
func renderIncast(t *testing.T, pool bool) string {
	t.Helper()
	cfg := IncastConfig{Seed: 3, Senders: 8, PairsPerSender: 300, QueueBytes: 4096}
	if pool {
		cfg.PoolBytes, cfg.PoolAlpha = 16<<10, 0.5
	}
	res, err := Incast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fieldLines(*res)
}
