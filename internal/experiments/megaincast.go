package experiments

import (
	"fmt"
	"time"

	"github.com/daiet/daiet/internal/topology"
)

// The megaincast figure is the engine-scale proof behind PR 7 (ROADMAP:
// million-packet fabrics): 1024 senders across 16 racks and 2 spines, all
// feeding one hop-by-hop reliable aggregation tree through shared-memory
// (Dynamic-Threshold) switch buffers — the same workload BigIncast runs,
// pushed to the scale where the event engine itself is the experiment.
//
// The axis is the engine configuration, not the workload: 1, 2 and 4
// event-engine domains, plus 4 domains with measured-skew dynamic
// re-partitioning live (seeded jittered schedule, re-cut on any measured
// imbalance). Every workload metric — frames simulated, events executed,
// drop rate, completion time — must be byte-identical down the whole
// column; TestMegaIncastCrossPointIdentical asserts it, and the figure
// table makes the invariant visible. peak_arena_kb and recuts_applied are
// deterministic per point but intentionally vary along the axis (arena
// peaks are per-domain, re-cuts only exist on the -recut point), so the
// cross-point identity check covers the workload columns only.

// megaIncastPoint pins one engine configuration on the axis.
type megaIncastPoint struct {
	label   string
	workers int
	recut   bool
}

var megaIncastPoints = []megaIncastPoint{
	{"1w", 1, false},
	{"2w", 2, false},
	{"4w", 4, false},
	{"4w-recut", 4, true},
}

// megaIncastConfig sizes one trial. The workload is identical at every
// point — only the engine cut differs.
func megaIncastConfig(seed uint64, scale float64, pt megaIncastPoint) BigIncastConfig {
	cfg := BigIncastConfig{
		Seed:           seed,
		Senders:        scaledInt(1024, scale, 64),
		Racks:          scaledInt(16, scale, 4),
		Spines:         2,
		PairsPerSender: scaledInt(24, scale, 8),
		Vocab:          scaledInt(8192, scale, 512),
		TableSize:      scaledInt(2048, scale, 128),
		PoolBytes:      512 << 10,
		Alpha:          2,
		SimWorkers:     pt.workers,
	}
	if pt.recut {
		cfg.Recut = topology.RecutConfig{
			Every:      200 * time.Microsecond,
			MinSkewPct: 5,
			Seed:       seed ^ 0x9e3779b97f4a7c15,
		}
	}
	return cfg
}

func init() {
	pts := make([]Point, len(megaIncastPoints))
	for i, p := range megaIncastPoints {
		pts[i] = Point{Label: p.label, X: float64(i)}
	}
	Register(&Spec{
		Name: "megaincast",
		Title: "Extension: million-frame engine — 1024 senders / 16 racks / 2 spines through the reliable " +
			"tree, identical results at 1/2/4 domains and under dynamic re-partitioning",
		XLabel: "engine",
		Points: pts,
		Metrics: []string{
			"frames_total",
			"events_total",
			"peak_arena_kb",
			"drop_rate_pct",
			"completion_ms",
			"recuts_applied",
		},
		Run: func(p Point, tr Trial) (map[string]float64, error) {
			var mp megaIncastPoint
			found := false
			for i := range megaIncastPoints {
				if pts[i].Label == p.Label {
					mp, found = megaIncastPoints[i], true
				}
			}
			if !found {
				return nil, fmt.Errorf("experiments: megaincast: unknown point %q", p.Label)
			}
			// The point pins the engine cut; tr.SimWorkers/tr.Recut are
			// deliberately ignored — the axis *is* the engine knob.
			cfg := megaIncastConfig(tr.Seed, tr.Scale, mp)
			res, err := BigIncast(cfg)
			if err != nil {
				return nil, err
			}
			if mp.recut && res.Recuts == 0 {
				return nil, fmt.Errorf("experiments: megaincast: %s applied no dynamic re-cut", p.Label)
			}
			return map[string]float64{
				"frames_total":   float64(res.Frames),
				"events_total":   float64(res.Events),
				"peak_arena_kb":  float64(res.ArenaStats.Bytes) / 1024,
				"drop_rate_pct":  res.DropRatePct,
				"completion_ms":  float64(res.Completion) / 1e6,
				"recuts_applied": float64(res.Recuts),
			}, nil
		},
	})
}
