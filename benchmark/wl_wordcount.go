package main

import (
	"fmt"

	"github.com/daiet/daiet/internal/mapreduce"
	"github.com/daiet/daiet/internal/workload"
)

// The word-count workloads run the paper's §5 experiment on the Figure 3
// corpus: a default cluster (24 mappers, 12 reducers, one switch, 16K
// register cells) built fresh for every job. wordcount-daiet shuffles with
// in-network aggregation; wordcount-baseline runs the same corpus through
// the two shuffles that bypass it.

const (
	wcMappers         = 24
	wcReducers        = 12
	wcTableSize       = 16384
	wcMultiplicity    = 8.3  // the paper's ~88% operating point
	wcVocabPerReducer = 2000 // fits the 16K-cell table collision-free
)

type wordcountDriver struct {
	seed   uint64
	modes  []mapreduce.Mode
	stream []string
	splits [][]string
	want   map[string]uint32   // built on first verify, outside set-up time
	seen   map[string]struct{} // verify's scratch, reused so it stops allocating

	last []*mapreduce.Result
}

// modeSpan names the span around RunJob, one per shuffle mode, so a
// UDP-versus-TCP trade-off hidden in the summed baseline trial shows.
var modeSpan = map[mapreduce.Mode]string{
	mapreduce.ModeDAIET:       "mapreduce.run_job_daiet",
	mapreduce.ModeUDPBaseline: "mapreduce.run_job_udp",
	mapreduce.ModeTCPBaseline: "mapreduce.run_job_tcp",
}

// The jobs of one trial, each on a fresh cluster.
var (
	modesDaiet    = []mapreduce.Mode{mapreduce.ModeDAIET}
	modesBaseline = []mapreduce.Mode{mapreduce.ModeUDPBaseline, mapreduce.ModeTCPBaseline}
)

func setupWordcountDaiet(seed uint64, rec *recorder) (driver, error) {
	return newWordcountDriver(seed, wcVocabPerReducer, modesDaiet, rec)
}

func setupWordcountBaseline(seed uint64, rec *recorder) (driver, error) {
	return newWordcountDriver(seed, wcVocabPerReducer, modesBaseline, rec)
}

func newWordcountDriver(seed uint64, vocabPerReducer int, modes []mapreduce.Mode, rec *recorder) (*wordcountDriver, error) {
	sp := rec.begin("workload.generate")
	corpus, err := workload.Generate(workload.CorpusSpec{
		Seed:             seed,
		Reducers:         wcReducers,
		VocabPerReducer:  vocabPerReducer,
		MeanMultiplicity: wcMultiplicity,
		TableSize:        wcTableSize,
		CollisionFree:    true,
	})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("workload.splits")
	splits := corpus.Splits(wcMappers)
	rec.end(sp)
	return &wordcountDriver{seed: seed, modes: modes, stream: corpus.Stream, splits: splits}, nil
}

func (d *wordcountDriver) trial(rec *recorder, c *counts) error {
	d.last = d.last[:0]
	for _, mode := range d.modes {
		sp := rec.begin("mapreduce.new_cluster")
		cl, err := mapreduce.NewCluster(mapreduce.ClusterConfig{Seed: d.seed})
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin(modeSpan[mode])
		res, err := cl.RunJob(mapreduce.WordCount, d.splits, mode)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin("netsim.stats")
		harvestCluster(cl, res, c)
		rec.end(sp)
		d.last = append(d.last, res)
	}
	return nil
}

// harvestCluster adds one finished job's exported statistics to the ledger.
func harvestCluster(cl *mapreduce.Cluster, res *mapreduce.Result, c *counts) {
	c.pairs += res.TotalPairsIn
	for _, r := range res.PerReducer {
		c.reducerPairs += r.PairsReceived
		c.reducerPayloadBytes += r.PayloadBytes
		c.reducerPackets += r.PacketsReceived
		c.reduceNs += int64(r.ReduceTime)
		if res.Mode != mapreduce.ModeTCPBaseline {
			// Every frame reaching a reducer NIC in the DAIET-protocol
			// modes is handed to its Collector.
			c.collFramesRx += r.PacketsReceived
			c.collPairsRx += r.PairsReceived
		}
	}
	for _, st := range res.SwitchTreeStats {
		harvestTree(st, c)
	}
	for _, m := range cl.Mappers {
		c.hostTx += cl.Hosts[m].Stats.FramesTx
	}
	for _, h := range cl.Hosts {
		c.transportFramesRx += h.Stats.FramesRx
	}
	harvestFabric(cl.Net, cl.Fab.Plan, c)
}

// verify checks every job of the last trial against the word counts of the
// corpus stream: every word is reduced exactly once, with the right count.
func (d *wordcountDriver) verify() error {
	if d.want == nil {
		d.want = countWords(d.stream)
		d.seen = make(map[string]struct{}, len(d.want))
	}
	if len(d.last) != len(d.modes) {
		return fmt.Errorf("%d job results for %d modes", len(d.last), len(d.modes))
	}
	for _, res := range d.last {
		clear(d.seen)
		for _, r := range res.PerReducer {
			for _, kv := range r.Output {
				if want, ok := d.want[kv.Key]; !ok || want != kv.Value {
					return fmt.Errorf("%s: reducer %d: key %q = %d, oracle %d", res.Mode, r.Reducer, kv.Key, kv.Value, want)
				}
				if _, dup := d.seen[kv.Key]; dup {
					return fmt.Errorf("%s: key %q reduced twice", res.Mode, kv.Key)
				}
				d.seen[kv.Key] = struct{}{}
			}
		}
		if len(d.seen) != len(d.want) {
			return fmt.Errorf("%s: reducers hold %d keys, oracle %d", res.Mode, len(d.seen), len(d.want))
		}
	}
	return nil
}
