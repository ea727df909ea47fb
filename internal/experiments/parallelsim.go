package experiments

import (
	"fmt"
	"time"
)

// The parallel-sim figure is the headline proof of the partitioned event
// engine (ROADMAP: parallelize *within* a single simulation): the same
// multi-rack WordCount fabric, executed with 1, 2 and 4 event-engine
// domains. The non-volatile metrics (core/edge traffic reduction, reducer
// pair counts) prove the determinism contract — every row of the table must
// carry identical values, and the registry-wide conformance tests assert it
// byte-for-byte — while wall_ms shows how wall-clock scales with domains on
// the host's cores.

// parallelSimWorkerCounts is the swept intra-sim domain axis.
var parallelSimWorkerCounts = []int{1, 2, 4}

// parallelSimConfig sizes one trial: a fabric with enough racks that the
// rack cut yields 4+ balanced domains and enough traffic that window
// synchronization amortizes.
func parallelSimConfig(seed uint64, scale float64, workers int) MultiRackConfig {
	return MultiRackConfig{
		Seed:         seed,
		Leaves:       4,
		Spines:       2,
		HostsPerLeaf: 8,
		Mappers:      24,
		Reducers:     6,
		Vocab:        scaledInt(1600, scale, 100),
		Parallelism:  1, // the two modes run sequentially; domains are the parallelism
		SimWorkers:   workers,
	}
}

func init() {
	pts := make([]Point, len(parallelSimWorkerCounts))
	for i, w := range parallelSimWorkerCounts {
		pts[i] = Point{Label: fmt.Sprintf("%dw", w), X: float64(w)}
	}
	Register(&Spec{
		Name:   "parallel-sim",
		Title:  "Extension: partitioned parallel event engine — one fabric, 1/2/4 domains (identical metrics, wall-clock scales with cores)",
		XLabel: "sim workers",
		Points: pts,
		Metrics: []string{
			"core_reduction_pct",
			"reducer_pairs",
			"wall_ms",
		},
		// Wall-clock is host time: real between runs and across worker
		// counts, excluded from determinism comparisons.
		Volatile: []string{"wall_ms"},
		Run: func(pt Point, tr Trial) (map[string]float64, error) {
			t0 := time.Now() //simlint:wallclock measures the declared-volatile wall_ms metric only
			res, err := MultiRack(parallelSimConfig(tr.Seed, tr.Scale, int(pt.X)))
			if err != nil {
				return nil, err
			}
			wall := float64(time.Since(t0).Microseconds()) / 1000 //simlint:wallclock declared-volatile wall_ms metric
			return map[string]float64{
				"core_reduction_pct": res.CoreReductionPct,
				"reducer_pairs":      float64(res.ReducerPairsDAIET),
				"wall_ms":            wall,
			}, nil
		},
	})
}
