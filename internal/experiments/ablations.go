package experiments

import (
	"fmt"
	"sort"
	"sync"

	"github.com/daiet/daiet/internal/mapreduce"
	"github.com/daiet/daiet/internal/runner"
	"github.com/daiet/daiet/internal/stats"
	"github.com/daiet/daiet/internal/wire"
	"github.com/daiet/daiet/internal/workload"
)

// AblationPoint is one configuration's outcome in an ablation sweep.
type AblationPoint struct {
	Label string
	// X is the swept parameter's numeric value.
	X float64
	// DataReductionPct is the median per-reducer data-volume reduction of
	// DAIET vs the UDP baseline (isolates aggregation from transport
	// effects).
	DataReductionPct float64
	// PacketReductionPct is the median packet-count reduction vs UDP.
	PacketReductionPct float64
	// SpilledPairs counts pairs that travelled via spillover buckets.
	SpilledPairs uint64
	// ReducerPairs counts pairs arriving at reducers under DAIET.
	ReducerPairs uint64
}

// ablationCorpusCache memoizes generated corpora: a corpus depends only on
// its spec, not on the swept parameter, so the points × seeds grid of an
// ablation Spec would otherwise regenerate identical corpora per point.
// Generation is deterministic, so a concurrent duplicate computation
// stores an identical value; the corpus is read-only after generation
// (Splits allocates fresh slice headers over the shared stream).
var ablationCorpusCache sync.Map // workload.CorpusSpec -> *workload.Corpus

// ablationCorpus builds (or recalls) the shared corpus for an ablation
// run; collisions are permitted when collisionFree is false (spillover
// ablations need them).
func ablationCorpus(seed uint64, reducers, vocabPer int, mult float64,
	tableSize, maxWordLen, keyWidth int, collisionFree bool) (*workload.Corpus, error) {
	spec := workload.CorpusSpec{
		Seed:             seed,
		Reducers:         reducers,
		VocabPerReducer:  vocabPer,
		MeanMultiplicity: mult,
		TableSize:        tableSize,
		MaxWordLen:       maxWordLen,
		KeyWidth:         keyWidth,
		CollisionFree:    collisionFree,
	}
	if v, ok := ablationCorpusCache.Load(spec); ok {
		return v.(*workload.Corpus), nil
	}
	corpus, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	ablationCorpusCache.Store(spec, corpus)
	return corpus, nil
}

// runPair runs DAIET and the UDP baseline over the same splits and reports
// the medians.
func runPair(splits [][]string, ccfg mapreduce.ClusterConfig) (AblationPoint, error) {
	var pt AblationPoint
	daietCl, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		return pt, err
	}
	daiet, err := daietCl.RunJob(mapreduce.WordCount, splits, mapreduce.ModeDAIET)
	if err != nil {
		return pt, err
	}
	udpCl, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		return pt, err
	}
	udp, err := udpCl.RunJob(mapreduce.WordCount, splits, mapreduce.ModeUDPBaseline)
	if err != nil {
		return pt, err
	}
	var dataRed, pktRed []float64
	for i := range daiet.PerReducer {
		dataRed = append(dataRed, stats.ReductionPct(
			float64(udp.PerReducer[i].PayloadBytes), float64(daiet.PerReducer[i].PayloadBytes)))
		pktRed = append(pktRed, stats.ReductionPct(
			float64(udp.PerReducer[i].PacketsReceived), float64(daiet.PerReducer[i].PacketsReceived)))
		pt.ReducerPairs += daiet.PerReducer[i].PairsReceived
	}
	pt.DataReductionPct = stats.Median(dataRed)
	pt.PacketReductionPct = stats.Median(pktRed)
	for _, st := range daiet.SwitchTreeStats {
		pt.SpilledPairs += st.PairsSpilled
	}
	return pt, nil
}

// ablationMappers/ablationReducers/ablationVocab size every ablation: the
// single source shared by the sweep functions and the registry Specs.
const (
	ablationMappers  = 8
	ablationReducers = 2
	ablationVocab    = 800
)

// ablationRegisterSizePoint runs one table-size configuration over its own
// (seed-determined, collision-permitted) corpus: small tables must spill.
func ablationRegisterSizePoint(seed uint64, size, vocabPer int) (AblationPoint, error) {
	var pt AblationPoint
	corpus, err := ablationCorpus(seed, ablationReducers, vocabPer, 8.3, 1<<20, 16, 16, false)
	if err != nil {
		return pt, err
	}
	pt, err = runPair(corpus.Splits(ablationMappers), mapreduce.ClusterConfig{
		NumMappers: ablationMappers, NumReducers: ablationReducers,
		TableSize: size, Seed: seed,
	})
	if err != nil {
		return pt, fmt.Errorf("experiments: table size %d: %w", size, err)
	}
	pt.Label = fmt.Sprintf("table=%d", size)
	pt.X = float64(size)
	return pt, nil
}

// AblationRegisterSize sweeps the per-tree register table size. Fewer
// cells mean more collisions (paper §5: fewer cells increase "the
// possibility that a pair is not aggregated"), degrading reduction while
// preserving correctness via spillover. Sweep points are independent
// (the corpus depends only on the seed, not the table size), so
// parallelism (<= 0 means GOMAXPROCS) shards them across the runner's
// pool.
func AblationRegisterSize(seed uint64, sizes []int, parallelism int) ([]AblationPoint, error) {
	return runner.Map(len(sizes), parallelism, func(shard int) (AblationPoint, error) {
		return ablationRegisterSizePoint(seed, sizes[shard], ablationVocab)
	})
}

// ablationPairsPerPacketPoint runs one packetization bound over its own
// collision-free corpus.
func ablationPairsPerPacketPoint(seed uint64, pairs, vocabPer int) (AblationPoint, error) {
	const tableSize = 4096
	var pt AblationPoint
	corpus, err := ablationCorpus(seed, ablationReducers, vocabPer, 8.3, tableSize, 16, 16, true)
	if err != nil {
		return pt, err
	}
	pt, err = runPair(corpus.Splits(ablationMappers), mapreduce.ClusterConfig{
		NumMappers: ablationMappers, NumReducers: ablationReducers,
		TableSize: tableSize, MaxPairsPerPacket: pairs, Seed: seed,
	})
	if err != nil {
		return pt, fmt.Errorf("experiments: pairs/packet %d: %w", pairs, err)
	}
	pt.Label = fmt.Sprintf("pairs=%d", pairs)
	pt.X = float64(pairs)
	return pt, nil
}

// AblationPairsPerPacket sweeps the packetization bound (the paper fixes
// 10 from the 200-300 B parse budget). Fewer pairs per packet inflate
// packet counts on both sides but leave the data reduction untouched.
func AblationPairsPerPacket(seed uint64, counts []int, parallelism int) ([]AblationPoint, error) {
	return runner.Map(len(counts), parallelism, func(shard int) (AblationPoint, error) {
		return ablationPairsPerPacketPoint(seed, counts[shard], ablationVocab)
	})
}

// ablationKeyWidthMaxWordLen keeps words short enough that every swept
// width >= 8 is lossless.
const ablationKeyWidthMaxWordLen = 8

// ablationKeyWidthPoint runs one fixed key width; the pair geometry
// changes with the width, so each point regenerates its corpus.
func ablationKeyWidthPoint(seed uint64, width, vocabPer int) (AblationPoint, error) {
	const tableSize = 4096
	var pt AblationPoint
	if width < ablationKeyWidthMaxWordLen {
		return pt, fmt.Errorf("experiments: key width %d below max word length %d",
			width, ablationKeyWidthMaxWordLen)
	}
	corpus, err := ablationCorpus(seed, ablationReducers, vocabPer, 8.3, tableSize,
		ablationKeyWidthMaxWordLen, width, true)
	if err != nil {
		return pt, err
	}
	pt, err = runPair(corpus.Splits(ablationMappers), mapreduce.ClusterConfig{
		NumMappers: ablationMappers, NumReducers: ablationReducers,
		TableSize: tableSize, Seed: seed,
		Geometry: wire.PairGeometry{KeyWidth: width},
	})
	if err != nil {
		return pt, fmt.Errorf("experiments: key width %d: %w", width, err)
	}
	pt.Label = fmt.Sprintf("keywidth=%d", width)
	pt.X = float64(width)
	return pt, nil
}

// AblationKeyWidth sweeps the fixed key width. The paper (§5) notes the
// 16 B fixed keys waste bytes for short words; narrower geometries shrink
// the on-wire volume for the same aggregation behaviour.
func AblationKeyWidth(seed uint64, widths []int, parallelism int) ([]AblationPoint, error) {
	for _, w := range widths {
		if w < ablationKeyWidthMaxWordLen {
			return nil, fmt.Errorf("experiments: key width %d below max word length %d",
				w, ablationKeyWidthMaxWordLen)
		}
	}
	return runner.Map(len(widths), parallelism, func(shard int) (AblationPoint, error) {
		return ablationKeyWidthPoint(seed, widths[shard], ablationVocab)
	})
}

// WorkerCombinerResult contrasts worker-level combining (classic MapReduce
// combiners) with in-network aggregation — the paper's §1 motivation that
// "aggregation functions are only applied at the worker-level, missing the
// opportunity of achieving better traffic reduction ratios".
type WorkerCombinerResult struct {
	// WorkerLevelReductionPct is the pair reduction a mapper-side combiner
	// achieves alone (unique-per-mapper / emitted).
	WorkerLevelReductionPct float64
	// InNetworkReductionPct is DAIET's pair reduction over the same input
	// (reducer-received / emitted), with mapper-side combining also on.
	InNetworkReductionPct float64
}

// AblationWorkerCombiner measures both levels on one corpus.
func AblationWorkerCombiner(seed uint64) (*WorkerCombinerResult, error) {
	return ablationWorkerCombiner(seed, 600)
}

func ablationWorkerCombiner(seed uint64, vocabPer int) (*WorkerCombinerResult, error) {
	const (
		mappers, reducers = 8, 2
		tableSize         = 4096
	)
	corpus, err := ablationCorpus(seed, reducers, vocabPer, 8.3, tableSize, 16, 16, true)
	if err != nil {
		return nil, err
	}
	splits := corpus.Splits(mappers)

	// Worker-level combining: each mapper aggregates its split locally.
	var emitted, afterWorker int
	combined := make([][]string, len(splits))
	for m, split := range splits {
		counts := map[string]int{}
		for _, w := range split {
			counts[w]++
		}
		emitted += len(split)
		afterWorker += len(counts)
		// Re-encode as "word" repeated once with its count folded in via a
		// count-valued job below: the combined stream carries one record
		// per distinct word per mapper, in sorted order (counts is a map;
		// its randomized iteration order must not shape the input stream).
		words := make([]string, 0, len(counts))
		for w := range counts {
			words = append(words, w)
		}
		sort.Strings(words)
		for _, w := range words {
			combined[m] = append(combined[m], fmt.Sprintf("%s=%d", w, counts[w]))
		}
	}

	// DAIET run over the combined stream: a WordCount variant whose Map
	// parses "word=count".
	job := mapreduce.Job{
		Name: "wordcount-precombined",
		Map: func(rec string, emit func(string, uint32)) {
			for i := len(rec) - 1; i >= 0; i-- {
				if rec[i] == '=' {
					var n uint32
					for _, c := range rec[i+1:] {
						n = n*10 + uint32(c-'0')
					}
					emit(rec[:i], n)
					return
				}
			}
			emit(rec, 1)
		},
		Agg: mapreduce.WordCount.Agg,
	}
	cl, err := mapreduce.NewCluster(mapreduce.ClusterConfig{
		NumMappers: mappers, NumReducers: reducers, TableSize: tableSize, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	res, err := cl.RunJob(job, combined, mapreduce.ModeDAIET)
	if err != nil {
		return nil, err
	}
	var reducerPairs uint64
	for _, r := range res.PerReducer {
		reducerPairs += r.PairsReceived
	}
	return &WorkerCombinerResult{
		WorkerLevelReductionPct: stats.ReductionPct(float64(emitted), float64(afterWorker)),
		InNetworkReductionPct:   stats.ReductionPct(float64(emitted), float64(reducerPairs)),
	}, nil
}

// ---- sweep-framework specs ----

// ablationPoints converts numeric axis values into labelled Points.
func ablationPoints(prefix string, xs []int) []Point {
	pts := make([]Point, len(xs))
	for i, x := range xs {
		pts[i] = Point{Label: fmt.Sprintf("%s=%d", prefix, x), X: float64(x)}
	}
	return pts
}

func init() {
	Register(&Spec{
		Name:    "ablation-table-size",
		Title:   "Ablation: register table size (paper §5: fewer cells, more unaggregated pairs)",
		XLabel:  "table size",
		Points:  ablationPoints("table", []int{64, 256, 1024, 4096, 16384}),
		Metrics: []string{"data_reduction_pct", "pkt_reduction_pct", "spilled_pairs"},
		Run: func(pt Point, tr Trial) (map[string]float64, error) {
			p, err := ablationRegisterSizePoint(tr.Seed, int(pt.X), scaledInt(ablationVocab, tr.Scale, 100))
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"data_reduction_pct": p.DataReductionPct,
				"pkt_reduction_pct":  p.PacketReductionPct,
				"spilled_pairs":      float64(p.SpilledPairs),
			}, nil
		},
	})

	Register(&Spec{
		Name:    "ablation-pairs-per-packet",
		Title:   "Ablation: pairs per packet (paper: 10 from the 200-300B parse budget)",
		XLabel:  "pairs/packet",
		Points:  ablationPoints("pairs", []int{2, 5, 10, 12}),
		Metrics: []string{"data_reduction_pct", "pkt_reduction_pct"},
		Run: func(pt Point, tr Trial) (map[string]float64, error) {
			p, err := ablationPairsPerPacketPoint(tr.Seed, int(pt.X), scaledInt(ablationVocab, tr.Scale, 100))
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"data_reduction_pct": p.DataReductionPct,
				"pkt_reduction_pct":  p.PacketReductionPct,
			}, nil
		},
	})

	Register(&Spec{
		Name:    "ablation-key-width",
		Title:   "Ablation: fixed key width (paper §5: 16B keys waste bytes for short words)",
		XLabel:  "key width",
		Points:  ablationPoints("width", []int{8, 16, 32}),
		Metrics: []string{"data_reduction_pct", "reducer_pairs"},
		Run: func(pt Point, tr Trial) (map[string]float64, error) {
			p, err := ablationKeyWidthPoint(tr.Seed, int(pt.X), scaledInt(ablationVocab, tr.Scale, 100))
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"data_reduction_pct": p.DataReductionPct,
				"reducer_pairs":      float64(p.ReducerPairs),
			}, nil
		},
	})

	Register(&Spec{
		Name:    "ablation-combiner",
		Title:   "Ablation: worker-level combiner vs in-network aggregation (paper §1)",
		XLabel:  "comparison",
		Points:  []Point{{Label: "combiner", X: 0}},
		Metrics: []string{"worker_level_reduction_pct", "in_network_reduction_pct"},
		Run: func(_ Point, tr Trial) (map[string]float64, error) {
			res, err := ablationWorkerCombiner(tr.Seed, scaledInt(600, tr.Scale, 100))
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"worker_level_reduction_pct": res.WorkerLevelReductionPct,
				"in_network_reduction_pct":   res.InNetworkReductionPct,
			}, nil
		},
	})
}
