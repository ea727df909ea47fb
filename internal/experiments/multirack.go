package experiments

import (
	"fmt"

	"github.com/daiet/daiet/internal/mapreduce"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/runner"
	"github.com/daiet/daiet/internal/stats"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/workload"
)

// MultiRackResult extends the paper's single-switch evaluation to the
// cluster deployments its §1 envisions ("practical deployments for our
// proposal might be better suited within clusters and racks"): WordCount on
// a leaf-spine fabric, measuring how much traffic hierarchical in-network
// aggregation removes from the core (leaf→spine) links, where data center
// bandwidth is scarcest.
type MultiRackResult struct {
	Leaves, Spines, HostsPerLeaf int

	// CoreBytes are bytes crossing leaf->spine links during the shuffle.
	CoreBytesBaseline uint64
	CoreBytesDAIET    uint64
	// EdgeBytes are bytes on host<->leaf links.
	EdgeBytesBaseline uint64
	EdgeBytesDAIET    uint64

	// CoreReductionPct is the headline number.
	CoreReductionPct float64
	EdgeReductionPct float64

	// ReducerPairs sanity-checks equality of results between modes.
	ReducerPairsBaseline uint64
	ReducerPairsDAIET    uint64
}

// MultiRackConfig sizes the experiment.
type MultiRackConfig struct {
	Seed         uint64
	Leaves       int // default 3
	Spines       int // default 2
	HostsPerLeaf int // default 6 (mappers fill racks, reducers share them)
	Mappers      int // default 12
	Reducers     int // default 4
	Vocab        int // default 800 per reducer
	TableSize    int // default 4096
	// Parallelism shards the baseline and DAIET trials across the runner's
	// pool (<= 0: GOMAXPROCS, 1: sequential).
	Parallelism int
}

func (c MultiRackConfig) withDefaults() MultiRackConfig {
	if c.Leaves == 0 {
		c.Leaves = 3
	}
	if c.Spines == 0 {
		c.Spines = 2
	}
	if c.HostsPerLeaf == 0 {
		c.HostsPerLeaf = 6
	}
	if c.Mappers == 0 {
		c.Mappers = 12
	}
	if c.Reducers == 0 {
		c.Reducers = 4
	}
	if c.Vocab == 0 {
		c.Vocab = 800
	}
	if c.TableSize == 0 {
		c.TableSize = 4096
	}
	return c
}

// MultiRack runs the experiment. Mapper hosts occupy the first racks;
// reducers the last — so shuffle traffic must cross the spine, and leaf
// switches aggregate their rack's contribution before it does.
func MultiRack(cfg MultiRackConfig) (*MultiRackResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Mappers+cfg.Reducers > cfg.Leaves*cfg.HostsPerLeaf {
		return nil, fmt.Errorf("experiments: %d workers exceed %d hosts",
			cfg.Mappers+cfg.Reducers, cfg.Leaves*cfg.HostsPerLeaf)
	}
	corpus, err := workload.Generate(workload.CorpusSpec{
		Seed:             cfg.Seed,
		Reducers:         cfg.Reducers,
		VocabPerReducer:  cfg.Vocab,
		MeanMultiplicity: 8.3,
		TableSize:        cfg.TableSize,
		CollisionFree:    true,
	})
	if err != nil {
		return nil, err
	}
	splits := corpus.Splits(cfg.Mappers)

	// Both trials build their own fabric (and netsim engine) over the shared
	// read-only splits, so the runner fans them out as independent shards.
	type trial struct {
		res *mapreduce.Result
		cl  *mapreduce.Cluster
	}
	modes := []mapreduce.Mode{mapreduce.ModeUDPBaseline, mapreduce.ModeDAIET}
	trials, err := runner.Map(len(modes), cfg.Parallelism, func(shard int) (trial, error) {
		plan := topology.LeafSpine(cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf,
			netsim.LinkConfig{QueueBytes: 64 << 20})
		cl, err := mapreduce.NewCluster(mapreduce.ClusterConfig{
			NumMappers:  cfg.Mappers,
			NumReducers: cfg.Reducers,
			Plan:        plan,
			TableSize:   cfg.TableSize,
			Seed:        cfg.Seed,
		})
		if err != nil {
			return trial{}, err
		}
		res, err := cl.RunJob(mapreduce.WordCount, splits, modes[shard])
		return trial{res: res, cl: cl}, err
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: multirack: %w", err)
	}
	baseRes, baseCl := trials[0].res, trials[0].cl
	daietRes, daietCl := trials[1].res, trials[1].cl

	out := &MultiRackResult{
		Leaves: cfg.Leaves, Spines: cfg.Spines, HostsPerLeaf: cfg.HostsPerLeaf,
	}
	out.CoreBytesBaseline, out.EdgeBytesBaseline = linkBytes(baseCl)
	out.CoreBytesDAIET, out.EdgeBytesDAIET = linkBytes(daietCl)
	out.CoreReductionPct = stats.ReductionPct(float64(out.CoreBytesBaseline), float64(out.CoreBytesDAIET))
	out.EdgeReductionPct = stats.ReductionPct(float64(out.EdgeBytesBaseline), float64(out.EdgeBytesDAIET))
	for _, r := range baseRes.PerReducer {
		out.ReducerPairsBaseline += r.PairsReceived
	}
	for _, r := range daietRes.PerReducer {
		out.ReducerPairsDAIET += r.PairsReceived
	}
	return out, nil
}

// linkBytes sums transmitted bytes over core (switch<->switch) and edge
// (host<->switch) links, both directions.
func linkBytes(cl *mapreduce.Cluster) (core, edge uint64) {
	for _, l := range cl.Fab.Plan.Links {
		aSwitch := topology.IsSwitchID(l.A)
		bSwitch := topology.IsSwitchID(l.B)
		aPort := cl.Fab.PortTo(l.A, l.B)
		bPort := cl.Fab.PortTo(l.B, l.A)
		bytes := cl.Net.PortStats(l.A, aPort).TxBytes + cl.Net.PortStats(l.B, bPort).TxBytes
		if aSwitch && bSwitch {
			core += bytes
		} else {
			edge += bytes
		}
	}
	return core, edge
}

func init() {
	Register(&Spec{
		Name:    "multirack",
		Title:   "Extension: hierarchical aggregation on a leaf-spine fabric (paper §1 clusters/racks)",
		XLabel:  "fabric",
		Points:  []Point{{Label: "leafspine", X: 0}},
		Metrics: []string{"core_reduction_pct", "edge_reduction_pct"},
		Run: func(_ Point, tr Trial) (map[string]float64, error) {
			res, err := MultiRack(MultiRackConfig{
				Seed:        tr.Seed,
				Vocab:       scaledInt(800, tr.Scale, 100),
				Parallelism: 1,
			})
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"core_reduction_pct": res.CoreReductionPct,
				"edge_reduction_pct": res.EdgeReductionPct,
			}, nil
		},
	})
}
