package experiments

import (
	"fmt"

	"github.com/daiet/daiet/internal/mapreduce"
	"github.com/daiet/daiet/internal/runner"
	"github.com/daiet/daiet/internal/stats"
	"github.com/daiet/daiet/internal/workload"
)

// Figure3Config sizes the WordCount evaluation. Defaults reproduce the
// paper's §5 layout (24 mappers, 12 reducers, 16K register pairs, 10
// pairs/packet, collision-free corpus) at a laptop-scale input; Scale
// multiplies the corpus volume.
type Figure3Config struct {
	Seed             uint64
	Mappers          int     // default 24
	Reducers         int     // default 12
	VocabPerReducer  int     // default 2000 (fits the 16K-slot table)
	MeanMultiplicity float64 // default 8.3 (the paper's ~88% operating point)
	TableSize        int     // default 16384
	MaxPairsPerPkt   int     // default 10
	MSS              int     // default 1460 (TCP baseline segment payload)
	Scale            float64 // multiplies VocabPerReducer (default 1)
	// Parallelism shards the three modes (DAIET, UDP baseline, TCP
	// baseline) across the runner's pool (<= 0: GOMAXPROCS, 1: sequential).
	Parallelism int
}

func (c Figure3Config) withDefaults() Figure3Config {
	if c.Mappers == 0 {
		c.Mappers = 24
	}
	if c.Reducers == 0 {
		c.Reducers = 12
	}
	if c.VocabPerReducer == 0 {
		c.VocabPerReducer = 2000
	}
	if c.MeanMultiplicity == 0 {
		c.MeanMultiplicity = 8.3
	}
	if c.TableSize == 0 {
		c.TableSize = 16384
	}
	if c.MaxPairsPerPkt == 0 {
		c.MaxPairsPerPkt = 10
	}
	if c.MSS == 0 {
		c.MSS = 1460
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	return c
}

// Figure3Result carries the four panels of Figure 3 as box-plot summaries
// over the per-reducer samples, plus the raw samples and corpus facts.
type Figure3Result struct {
	Cfg Figure3Config

	// Panel 1: reduction in data volume at reducers, DAIET vs TCP baseline.
	DataReduction stats.Summary
	// Panel 2: reduction in reduce-phase running time, DAIET vs TCP
	// baseline (despite DAIET's full reducer-side sort).
	ReduceTimeReduction stats.Summary
	// Panel 3: reduction in packets received, DAIET vs the UDP baseline.
	PacketsVsUDP stats.Summary
	// Panel 4: reduction in packets received, DAIET vs the TCP baseline.
	PacketsVsTCP stats.Summary

	Samples struct {
		DataReduction       []float64
		ReduceTimeReduction []float64
		PacketsVsUDP        []float64
		PacketsVsTCP        []float64
	}

	TotalWords  int
	UniqueWords int
	// Switch-side aggregate counters for the DAIET run.
	PairsIn, PairsSpilled uint64
}

// Figure3 runs WordCount in all three modes and computes the four panels.
func Figure3(cfg Figure3Config) (*Figure3Result, error) {
	cfg = cfg.withDefaults()
	vocab := int(float64(cfg.VocabPerReducer) * cfg.Scale)
	if vocab < 1 {
		vocab = 1
	}
	corpus, err := workload.Generate(workload.CorpusSpec{
		Seed:             cfg.Seed,
		Reducers:         cfg.Reducers,
		VocabPerReducer:  vocab,
		MeanMultiplicity: cfg.MeanMultiplicity,
		TableSize:        cfg.TableSize,
		CollisionFree:    true,
	})
	if err != nil {
		return nil, err
	}
	splits := corpus.Splits(cfg.Mappers)

	// The three modes are independent trials over the same read-only splits:
	// each shard builds its own cluster (and netsim engine), so the runner
	// can fan them out without sharing any simulator state.
	modes := []mapreduce.Mode{mapreduce.ModeDAIET, mapreduce.ModeUDPBaseline, mapreduce.ModeTCPBaseline}
	results, err := runner.Map(len(modes), cfg.Parallelism, func(shard int) (*mapreduce.Result, error) {
		cl, err := mapreduce.NewCluster(mapreduce.ClusterConfig{
			NumMappers:        cfg.Mappers,
			NumReducers:       cfg.Reducers,
			TableSize:         cfg.TableSize,
			MaxPairsPerPacket: cfg.MaxPairsPerPkt,
			MSS:               cfg.MSS,
			Seed:              cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		return cl.RunJob(mapreduce.WordCount, splits, modes[shard])
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 3: %w", err)
	}
	daiet, udp, tcp := results[0], results[1], results[2]

	out := &Figure3Result{Cfg: cfg, TotalWords: corpus.TotalWords, UniqueWords: corpus.UniqueWords}
	for i := range daiet.PerReducer {
		d, u, t := daiet.PerReducer[i], udp.PerReducer[i], tcp.PerReducer[i]
		out.Samples.DataReduction = append(out.Samples.DataReduction,
			stats.ReductionPct(float64(t.PayloadBytes), float64(d.PayloadBytes)))
		out.Samples.ReduceTimeReduction = append(out.Samples.ReduceTimeReduction,
			stats.ReductionPct(float64(t.ReduceTime), float64(d.ReduceTime)))
		out.Samples.PacketsVsUDP = append(out.Samples.PacketsVsUDP,
			stats.ReductionPct(float64(u.PacketsReceived), float64(d.PacketsReceived)))
		out.Samples.PacketsVsTCP = append(out.Samples.PacketsVsTCP,
			stats.ReductionPct(float64(t.PacketsReceived), float64(d.PacketsReceived)))
	}
	out.DataReduction = stats.Summarize(out.Samples.DataReduction)
	out.ReduceTimeReduction = stats.Summarize(out.Samples.ReduceTimeReduction)
	out.PacketsVsUDP = stats.Summarize(out.Samples.PacketsVsUDP)
	out.PacketsVsTCP = stats.Summarize(out.Samples.PacketsVsTCP)

	// Switch-side accounting, captured by the run before tree teardown.
	for _, st := range daiet.SwitchTreeStats {
		out.PairsIn += st.PairsIn
		out.PairsSpilled += st.PairsSpilled
	}
	return out, nil
}

func init() {
	Register(&Spec{
		Name:   "fig3",
		Title:  "Figure 3: WordCount, 24 mappers / 12 reducers, 16K register pairs (paper: ~88% data, 83.6% time, 90.5%/42% packets)",
		XLabel: "workload",
		Points: []Point{{Label: "wordcount", X: 0}},
		Metrics: []string{
			"data_reduction_median_pct",
			"reduce_time_median_pct",
			"packets_vs_udp_median_pct",
			"packets_vs_tcp_median_pct",
		},
		// Reduce-phase timing is host wall-clock: real between runs, excluded
		// from determinism comparisons.
		Volatile: []string{"reduce_time_median_pct"},
		Run: func(_ Point, tr Trial) (map[string]float64, error) {
			// The grid is the fan-out level; each trial runs its three modes
			// sequentially.
			res, err := Figure3(Figure3Config{Seed: tr.Seed, Scale: tr.Scale, Parallelism: 1})
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"data_reduction_median_pct": res.DataReduction.Median,
				"reduce_time_median_pct":    res.ReduceTimeReduction.Median,
				"packets_vs_udp_median_pct": res.PacketsVsUDP.Median,
				"packets_vs_tcp_median_pct": res.PacketsVsTCP.Median,
			}, nil
		},
	})
}
