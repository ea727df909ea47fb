// Benchmark harness: every figure in the registry as a testing.B
// sub-benchmark, plus micro-benchmarks of the dataplane hot path. Figure
// benchmarks run through the same declarative Spec engine as
// cmd/daiet-bench and report their headline means via b.ReportMetric, so
// `go test -bench` output doubles as a results table; cmd/daiet-bench
// prints the full tables with confidence intervals.
//
// Benchmarks run scaled-down inputs so `go test -bench=. ./...` completes
// on a laptop; use cmd/daiet-bench -scale/-seeds to grow them.
package daiet_test

import (
	"fmt"
	"testing"

	daiet "github.com/daiet/daiet"
	"github.com/daiet/daiet/internal/experiments"
)

// BenchmarkFigures regenerates every registered figure at benchmark scale:
// two seeds per point (enough for a non-degenerate interval) over a
// reduced problem size. One sub-benchmark per registry entry — adding a
// figure file adds its benchmark automatically.
func BenchmarkFigures(b *testing.B) {
	for _, spec := range experiments.Specs() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var res *experiments.FigureResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = spec.Execute(experiments.RunConfig{
					Seed:  7,
					Seeds: 2,
					Scale: 0.25,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			// Surface the first point's metrics as the headline numbers.
			for _, name := range res.MetricNames {
				b.ReportMetric(res.Points[0].Metrics[name].Mean, name)
			}
		})
	}
}

// BenchmarkSwitchPipelinePerPacket measures the simulated dataplane's
// per-packet aggregation cost: one fully loaded DATA packet (10 pairs)
// through parse + tree lookup + Algorithm 1.
func BenchmarkSwitchPipelinePerPacket(b *testing.B) {
	net, err := daiet.NewSingleSwitch(2)
	if err != nil {
		b.Fatal(err)
	}
	hosts := net.Hosts()
	tree, err := net.InstallTree(hosts[1], hosts[:1], daiet.TreeOptions{TableSize: 16384})
	if err != nil {
		b.Fatal(err)
	}
	_ = tree
	s, err := net.NewSender(hosts[0], hosts[1])
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Send(keys[i%len(keys)], uint32(i)); err != nil {
			b.Fatal(err)
		}
		if (i+1)%10 == 0 { // one full packet per 10 sends
			if err := net.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
}

// BenchmarkEndToEndAggregationRound measures a whole round: 4 workers send
// 100 overlapping keys each, the switch aggregates, flushes, and the
// reducer completes.
func BenchmarkEndToEndAggregationRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := daiet.NewSingleSwitch(5)
		if err != nil {
			b.Fatal(err)
		}
		hosts := net.Hosts()
		tree, err := net.InstallTree(hosts[4], hosts[:4], daiet.TreeOptions{TableSize: 1024})
		if err != nil {
			b.Fatal(err)
		}
		col, err := net.NewCollector(hosts[4], daiet.AggSum, tree.RootChildren())
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range hosts[:4] {
			s, err := net.NewSender(m, hosts[4])
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < 100; k++ {
				if err := s.Send([]byte(fmt.Sprintf("key-%03d", k)), 1); err != nil {
					b.Fatal(err)
				}
			}
			s.End()
		}
		if err := net.Run(); err != nil {
			b.Fatal(err)
		}
		if !col.Complete() {
			b.Fatal("incomplete")
		}
	}
}
