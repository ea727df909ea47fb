package main

import (
	"fmt"
	"math"

	"github.com/daiet/daiet/internal/graphgen"
	"github.com/daiet/daiet/internal/mlps"
	"github.com/daiet/daiet/internal/pregel"
)

// overlap-analytics is the Figure 1 side of the repo: parameter-server
// training (the Adam and SGD configurations) and three Pregel algorithms on
// an R-MAT graph. No fabric is involved; the "pairs" are tensor updates and
// cross-worker messages, the "reducer pairs" what is left after combining.

// overlapSizes parameterizes one overlap-analytics trial.
type overlapSizes struct {
	samples    int // SyntheticMNIST samples
	steps      int // training steps per optimizer
	graphScale int // R-MAT: 2^graphScale vertices
}

var overlapFull = overlapSizes{samples: 4000, steps: 200, graphScale: 16}

const (
	overlapEdgeFactor = 14 // LiveJournal's edge/vertex ratio
	overlapWorkers    = 4
	overlapSupersteps = 10
	// The dataset's ten class templates are fifty random strokes; their ink
	// density sets the gradient's cost, and drawing them per seed moved the
	// trial by ±6% — input variance, not measurement noise. So the dataset
	// is always the registry's (base seed 7); -seed drives the mini-batch
	// sampling and the graph.
	overlapDatasetSeed = 7
)

type overlapDriver struct {
	seed uint64
	sz   overlapSizes
	ds   *mlps.Dataset
	g    *graphgen.Graph
	src  int
	ref  *graphReference // built on first verify, outside set-up time

	adam, sgd     *mlps.TrainResult
	pr, sssp, wcc *pregel.Result
}

func setupOverlap(seed uint64, rec *recorder) (driver, error) {
	return newOverlapDriver(seed, overlapFull, rec)
}

func newOverlapDriver(seed uint64, sz overlapSizes, rec *recorder) (*overlapDriver, error) {
	sp := rec.begin("mlps.dataset")
	ds := mlps.SyntheticMNIST(overlapDatasetSeed, sz.samples)
	rec.end(sp)
	sp = rec.begin("graphgen.rmat")
	g, err := graphgen.RMAT(graphgen.RMATConfig{Scale: sz.graphScale, EdgeFactor: overlapEdgeFactor, Seed: seed})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	return &overlapDriver{seed: seed, sz: sz, ds: ds, g: g, src: g.HighestDegreeVertex()}, nil
}

func (d *overlapDriver) trial(rec *recorder, c *counts) (err error) {
	adam := mlps.Figure1bConfig(d.seed)
	adam.Steps = d.sz.steps
	sp := rec.begin("mlps.train_adam")
	d.adam, err = mlps.Train(d.ds, adam)
	rec.end(sp)
	if err != nil {
		return err
	}
	sgd := mlps.Figure1aConfig(d.seed)
	sgd.Steps = d.sz.steps
	sp = rec.begin("mlps.train_sgd")
	d.sgd, err = mlps.Train(d.ds, sgd)
	rec.end(sp)
	if err != nil {
		return err
	}

	pcfg := pregel.Config{Workers: overlapWorkers, MaxSupersteps: overlapSupersteps}
	sp = rec.begin("pregel.pagerank")
	d.pr = pregel.PageRank(d.g, pcfg)
	rec.end(sp)
	sp = rec.begin("pregel.sssp")
	d.sssp, err = pregel.SSSP(d.g, d.src, pcfg)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("pregel.wcc")
	d.wcc = pregel.WCC(d.g, pcfg)
	rec.end(sp)

	for _, tr := range []*mlps.TrainResult{d.adam, d.sgd} {
		for _, m := range tr.Metrics {
			c.pairs += uint64(m.TotalUpdates)
			c.reducerPairs += uint64(m.UniqueUpdates)
			c.fold(uint64(m.TotalUpdates))
			c.fold(uint64(m.UniqueUpdates))
		}
	}
	for _, res := range []*pregel.Result{d.pr, d.sssp, d.wcc} {
		for _, st := range res.Stats {
			c.pairs += uint64(st.RemoteMessages)
			c.reducerPairs += uint64(st.CombinedRemote)
			c.fold(uint64(st.Messages))
			c.fold(uint64(st.RemoteMessages))
			c.fold(uint64(st.CombinedRemote))
		}
	}
	return nil
}

// verify checks training by its loss curve (finite, and lower at the end
// than at the start) and the three graph results against references the
// benchmark computes itself on the generated graph.
func (d *overlapDriver) verify() error {
	for _, tr := range []*mlps.TrainResult{d.adam, d.sgd} {
		if err := checkLossCurve(tr.Metrics); err != nil {
			return fmt.Errorf("%s: %w", tr.Config.Optimizer, err)
		}
	}
	if d.ref == nil {
		d.ref = newGraphReference(d.g.Out, d.src, overlapSupersteps)
	}
	if err := compareValues(d.pr.Values, d.ref.pagerank, 1e-9); err != nil {
		return fmt.Errorf("pagerank: %w", err)
	}
	if err := compareValues(d.sssp.Values, d.ref.sssp, 0); err != nil {
		return fmt.Errorf("sssp: %w", err)
	}
	if err := compareValues(d.wcc.Values, d.ref.wcc, 0); err != nil {
		return fmt.Errorf("wcc: %w", err)
	}
	return nil
}

func checkLossCurve(ms []mlps.StepMetrics) error {
	if len(ms) < 2 {
		return fmt.Errorf("%d training steps", len(ms))
	}
	n := (len(ms) + 9) / 10 // compare the first and last tenth
	var head, tail float64
	for i, m := range ms {
		if math.IsNaN(m.Loss) || math.IsInf(m.Loss, 0) {
			return fmt.Errorf("step %d: loss %v", m.Step, m.Loss)
		}
		if i < n {
			head += m.Loss
		}
		if i >= len(ms)-n {
			tail += m.Loss
		}
	}
	if tail >= head {
		return fmt.Errorf("loss did not fall: first tenth %.4f, last tenth %.4f", head/float64(n), tail/float64(n))
	}
	return nil
}
