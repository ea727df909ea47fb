package experiments

// The megaincast figure is the engine-scale record behind the million-packet
// fabrics ROADMAP item: 1024 senders across 16 racks and 2 spines, all
// feeding one hop-by-hop reliable aggregation tree through shared-memory
// (Dynamic-Threshold) switch buffers — the same workload BigIncast runs,
// pushed to the scale where the event engine itself is the experiment. It
// reports what the engine did (frames simulated, events executed, peak
// arena footprint) next to what the workload saw (drop rate, completion).

// megaIncastConfig sizes one trial.
func megaIncastConfig(seed uint64, scale float64) BigIncastConfig {
	return BigIncastConfig{
		Seed:           seed,
		Senders:        scaledInt(1024, scale, 64),
		Racks:          scaledInt(16, scale, 4),
		Spines:         2,
		PairsPerSender: scaledInt(24, scale, 8),
		Vocab:          scaledInt(8192, scale, 512),
		TableSize:      scaledInt(2048, scale, 128),
		PoolBytes:      512 << 10,
		Alpha:          2,
	}
}

func init() {
	Register(&Spec{
		Name:   "megaincast",
		Title:  "Extension: million-frame engine — 1024 senders / 16 racks / 2 spines through the reliable tree",
		XLabel: "engine",
		// One point. The figure golden keys its lines by this label and X,
		// so renaming the point rewrites them.
		Points: []Point{{Label: "1w", X: 0}},
		Metrics: []string{
			"frames_total",
			"events_total",
			"peak_arena_kb",
			"drop_rate_pct",
			"completion_ms",
		},
		Run: func(_ Point, tr Trial) (map[string]float64, error) {
			res, err := BigIncast(megaIncastConfig(tr.Seed, tr.Scale))
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"frames_total":  float64(res.Frames),
				"events_total":  float64(res.Events),
				"peak_arena_kb": float64(res.ArenaStats.Bytes) / 1024,
				"drop_rate_pct": res.DropRatePct,
				"completion_ms": float64(res.Completion) / 1e6,
			}, nil
		},
	})
}
