package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/hashing"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/wire"
)

// Shared plumbing of the fan-in experiments (incast, bigincast, tenants):
// one reliable fan-in round over a deployed fabric, deterministic
// per-sender workloads, and the exactly-once check.

// fanInRound is one reliable fan-in round: the aggregation tree, the
// reducer's root-ACKing collector, one go-back-N sender per worker, and
// the aggregate the collector must reach.
type fanInRound struct {
	tree     *controller.TreePlan
	col      *core.Collector
	senders  []*core.ReliableSender
	feedErrs []error // one slot per sender, checked once the run drained
	want     map[string]uint32
}

// fanIn sets up one round: it plans and installs the reliable sum tree
// from workers to reducer under opt, attaches the collector, and gives
// each worker an AckMux-registered ReliableSender with window-sized
// go-back-N and its senderWorkload stream. start feeds the worker — at
// once, jittered or paced — right after its sender exists, in worker
// order. Hosts and switches both retransmit after 500 µs and senders
// never give up: completion, not give-up, is under study.
func fanIn(d *controller.Deployment, reducer netsim.NodeID, workers []netsim.NodeID,
	opt controller.TreeOptions, window int, seed uint64, pairs, vocab int,
	start func(r *fanInRound, i int, stream []core.KV, rng *rand.Rand)) (*fanInRound, error) {

	tree, err := d.Ctl.PlanTree(reducer, workers)
	if err != nil {
		return nil, err
	}
	opt.Agg, opt.Reliable, opt.RootRTO = core.AggSum, true, 500*time.Microsecond
	if err := d.Ctl.InstallTree(tree, opt); err != nil {
		return nil, err
	}
	sum, err := core.FuncByID(core.AggSum)
	if err != nil {
		return nil, err
	}
	r := &fanInRound{tree: tree, feedErrs: make([]error, len(workers)), want: map[string]uint32{}}
	r.col = core.NewCollector(uint32(reducer), sum, wire.DefaultGeometry, tree.RootChildren())
	r.col.Attach(d.Hosts[reducer])
	r.col.EnableRootAck()
	rcfg := core.ReliableConfig{Window: window, RTO: 500 * time.Microsecond, MaxRetries: 10_000}
	for i, w := range workers {
		mux := core.NewAckMux(d.Hosts[w])
		s, err := core.NewReliableSender(d.Hosts[w], tree.TreeID, reducer, wire.DefaultGeometry, 10, rcfg)
		if err != nil {
			return nil, err
		}
		mux.Register(s)
		r.senders = append(r.senders, s)
		stream, rng := senderWorkload(seed, w, pairs, vocab, r.want)
		start(r, i, stream, rng)
	}
	return r, nil
}

// feed sends part of worker i's stream and ENDs the stream after the last
// part.
func (r *fanInRound) feed(i int, part []core.KV, last bool) {
	s := r.senders[i]
	for _, kv := range part {
		if err := s.Send([]byte(kv.Key), kv.Value); err != nil {
			r.feedErrs[i] = err
			return
		}
	}
	if last {
		s.End()
	}
}

// feedAll is the synchronized start: the whole stream queues at once.
func feedAll(r *fanInRound, i int, stream []core.KV, _ *rand.Rand) { r.feed(i, stream, true) }

// check is the round's gate once the run has drained: every feed
// succeeded, every sender finished, the collector completed, and its
// aggregate is exact — a duplicate or lost pair anywhere in the tree
// shows up as a wrong sum. It returns the senders' summed statistics.
func (r *fanInRound) check() (core.ReliableStats, error) {
	var st core.ReliableStats
	for i, s := range r.senders {
		if err := r.feedErrs[i]; err != nil {
			return st, fmt.Errorf("sender %d feed: %w", i, err)
		}
		if !s.Done() {
			return st, fmt.Errorf("sender %d incomplete: %v", i, s.Err())
		}
		st.Transmissions += s.Stats.Transmissions
		st.Retransmissions += s.Stats.Retransmissions
		st.PairsSent += s.Stats.PairsSent
	}
	if !r.col.Complete() {
		return st, fmt.Errorf("collector incomplete (%+v)", r.col.Stats)
	}
	got := r.col.Result()
	if len(got) != len(r.want) {
		return st, fmt.Errorf("%d keys, want %d", len(got), len(r.want))
	}
	for k, v := range r.want {
		if got[k] != v {
			return st, fmt.Errorf("key %q = %d, want %d (duplicate or lost aggregation)", k, got[k], v)
		}
	}
	return st, nil
}

// senderWorkload draws worker w's deterministic stream: its actual length
// within ±20% of pairsMean, keys from a shared vocab (overlap makes the
// in-network aggregation real), accumulating the ground truth into want.
// The returned RNG has consumed exactly the workload draws, so later draws
// (start jitter) never perturb the stream itself.
func senderWorkload(seed uint64, w netsim.NodeID, pairsMean, vocab int,
	want map[string]uint32) ([]core.KV, *rand.Rand) {

	rng := rand.New(rand.NewSource(int64(hashing.Mix64(seed ^ uint64(w)<<20))))
	n := pairsMean * (80 + rng.Intn(41)) / 100 // ±20%
	stream := make([]core.KV, n)
	for k := 0; k < n; k++ {
		key := fmt.Sprintf("key-%05d", rng.Intn(vocab))
		val := uint32(rng.Intn(1000))
		want[key] += val
		stream[k] = core.KV{Key: key, Value: val}
	}
	return stream, rng
}

// jainIndex is Jain's fairness index over xs: (Σx)² / (n·Σx²) — 1.0 when
// every element is equal, approaching 1/n when one element dominates.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
