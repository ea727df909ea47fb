package experiments

import (
	"fmt"
	"sync"
	"time"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/stats"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/wire"
)

// Incast is the first scenario beyond the paper's evaluation: synchronized
// fan-in under small switch buffers — the regime the paper explicitly
// leaves open ("we do not address the issue of packet losses"; the testbed
// was a bmv2 software switch whose veth buffering is effectively
// unbounded, cf. ClusterConfig.QueueBytes). Every worker starts streaming
// into one aggregation tree at t=0; the per-port queues on the
// worker→switch edge are swept from testbed-sized down to a few frames, so
// the simultaneous burst tail-drops, and the reliability extension
// (core.ReliableSender + the switch-side gate) must recover the losses.
//
// Measured per queue size: the edge drop rate, the retransmissions the
// recovery cost, and how much the synchronized round's completion time
// inflates relative to the same workload under testbed-sized buffers —
// with the correctness gate that the aggregated sums stay exact despite
// retransmission (the gate's idempotence claim, under real loss at scale).
//
// The root (switch→reducer) hop is swept along with the edge: flush
// traffic is protected by the switch-side bounded replay buffer
// (core.TreeConfig.RootReplay) — retained-until-ACKed packets, go-back-N
// retransmission, and flush-loop backpressure when the buffer fills — with
// the collector gating per-source sequence order and answering cumulative
// ACKs. Earlier revisions exempted the root hop with testbed-sized queues;
// the replay buffer removes that exemption.

// IncastConfig sizes one incast trial.
type IncastConfig struct {
	Seed    uint64
	Senders int // fan-in degree (default 24, the paper's mapper count)
	// PairsPerSender is the mean stream length; each sender draws its
	// actual length within ±20% from its own seed stream (default 1200).
	PairsPerSender int
	// Vocab is the shared key space; overlapping keys make the in-network
	// aggregation real (default 2048).
	Vocab int
	// QueueBytes sizes the swept worker→switch per-port queues, the same
	// quantity ClusterConfig.QueueBytes sets fabric-wide (default 64 MiB,
	// i.e. the loss-free testbed).
	QueueBytes int
	// RootQueueBytes sizes the switch→reducer hop. Default: QueueBytes —
	// the root hop is swept along with the edge, protected by the
	// switch-side replay buffer (RootReplay); it no longer needs the
	// testbed-sized exemption earlier revisions kept.
	RootQueueBytes int
	// RootReplay bounds the switch's per-tree replay buffer for the
	// switch→reducer hop (default 32 packets).
	RootReplay int
	// StartJitter staggers sender start times uniformly over [0,
	// StartJitter], drawn deterministically per (seed, sender). 0 keeps
	// the fully synchronized fan-in.
	StartJitter time.Duration
	TableSize   int // per-tree register cells (default 4096)
	// PoolBytes, when > 0, replaces the switch's per-port egress FIFOs with
	// one shared buffer memory of this size under Dynamic-Threshold
	// admission (netsim.PoolConfig): the ACK streams back to every worker
	// and the flush stream to the reducer then contend for one memory, the
	// way a real shared-memory ASIC behaves. 0 keeps the historical
	// per-port QueueBytes model, so the registered incast figures
	// reproduce bit-for-bit. PoolReserve/PoolAlpha parameterize the DT
	// (defaults 2 KiB and 1.0; pass -1 for an explicit zero — no reserve
	// floor / no borrowing — since 0 means "default" here). Host uplinks
	// always keep private queues — QueueBytes remains the standalone-link
	// fallback.
	PoolBytes   int
	PoolReserve int
	PoolAlpha   float64
}

func (c IncastConfig) withDefaults() IncastConfig {
	if c.Senders == 0 {
		c.Senders = 24
	}
	if c.PairsPerSender == 0 {
		c.PairsPerSender = 1200
	}
	if c.Vocab == 0 {
		c.Vocab = 2048
	}
	if c.QueueBytes == 0 {
		c.QueueBytes = 64 << 20
	}
	if c.RootQueueBytes == 0 {
		c.RootQueueBytes = c.QueueBytes
	}
	if c.RootReplay == 0 {
		c.RootReplay = 32
	}
	if c.TableSize == 0 {
		c.TableSize = 4096
	}
	if c.PoolBytes > 0 {
		switch {
		case c.PoolReserve == 0:
			c.PoolReserve = 2 << 10
		case c.PoolReserve < 0:
			c.PoolReserve = 0 // explicit: no reserve floor
		}
		switch {
		case c.PoolAlpha == 0:
			c.PoolAlpha = 1
		case c.PoolAlpha < 0:
			c.PoolAlpha = 0 // explicit: no borrowing (static reserves)
		}
	}
	return c
}

// IncastResult is one trial's outcome.
type IncastResult struct {
	Cfg IncastConfig

	// Admission accounting: the worker→switch edge, plus (in shared-memory
	// mode, PoolBytes > 0) the switch's own pooled egress ports.
	FramesAttempted uint64
	FramesDropped   uint64
	DropRatePct     float64

	// Reliability-layer work.
	Transmissions   uint64
	Retransmissions uint64
	PairsSent       uint64

	// Completion is the virtual time at which every sender's stream was
	// acknowledged and the reducer's collector completed.
	Completion netsim.Time
}

// Incast runs one synchronized fan-in round and verifies the aggregate is
// exact. The result is fully deterministic in (Seed, config): completion
// is virtual time, and drops come from queue admission, not randomness.
func Incast(cfg IncastConfig) (*IncastResult, error) {
	cfg = cfg.withDefaults()

	// Hand-build the plan so the edge and root hops get different queues.
	sw := topology.SwitchBase
	plan := &topology.Plan{Name: "incast", Switches: []netsim.NodeID{sw}}
	for i := 0; i < cfg.Senders+1; i++ {
		h := topology.HostBase + netsim.NodeID(i)
		plan.Hosts = append(plan.Hosts, h)
		lc := netsim.LinkConfig{QueueBytes: cfg.QueueBytes}
		if i == cfg.Senders { // the reducer's link: unswept
			lc.QueueBytes = cfg.RootQueueBytes
		}
		plan.Links = append(plan.Links, topology.Link{A: h, B: sw, Cfg: lc})
	}
	if cfg.PoolBytes > 0 {
		// Shared-memory mode: the switch's egress queues (per-worker ACK
		// streams + the flush stream to the reducer) share one DT pool.
		// Reserve floors are hard-carved, so the per-port floor cannot
		// exceed an equal split of the memory across the switch's
		// cfg.Senders+1 ports — clamp the default when the fan-in is wide.
		reserve := cfg.PoolReserve
		if split := cfg.PoolBytes / (cfg.Senders + 1); reserve > split {
			reserve = split
		}
		plan.SetPool(sw, netsim.PoolConfig{
			TotalBytes:   cfg.PoolBytes,
			ReserveBytes: reserve,
			Alpha:        cfg.PoolAlpha,
		})
	}
	workers, reducer := plan.Hosts[:cfg.Senders], plan.Hosts[cfg.Senders]

	nw := netsim.New(cfg.Seed)
	fb, err := buildDaietFabric(nw, plan)
	if err != nil {
		return nil, err
	}
	programs, hosts, fab := fb.programs, fb.hosts, fb.fab
	ctl := controller.New(fab, programs)
	if err := ctl.InstallRouting(); err != nil {
		return nil, err
	}
	tplan, err := ctl.PlanTree(reducer, workers)
	if err != nil {
		return nil, err
	}
	// The single switch is the tree root: it gates the workers for
	// exactly-once aggregation, and its flush hop to the reducer is
	// protected by the bounded replay buffer instead of by testbed-sized
	// queues.
	if err := ctl.InstallTree(tplan, controller.TreeOptions{
		Agg:        core.AggSum,
		TableSize:  cfg.TableSize,
		Reliable:   true,
		RootReplay: cfg.RootReplay,
		RootRTO:    500 * time.Microsecond,
	}); err != nil {
		return nil, err
	}

	sum, err := core.FuncByID(core.AggSum)
	if err != nil {
		return nil, err
	}
	col := core.NewCollector(uint32(reducer), sum, wire.DefaultGeometry, tplan.RootChildren())
	col.Attach(hosts[reducer])
	col.EnableRootAck()

	// Synchronized fan-in: every worker queues its whole stream at t=0.
	// Go-back-N keeps at most Window packets in flight per sender; under
	// small buffers even that burst overflows the edge queue.
	rcfg := core.ReliableConfig{
		Window:     32,
		RTO:        500 * time.Microsecond,
		MaxRetries: 10_000, // completion, not give-up, is under study
	}
	want := map[string]uint32{}
	senders := make([]*core.ReliableSender, len(workers))
	// One error slot per sender, checked once the run has drained, so a
	// failed feed is reported with its sender's index.
	feedErrs := make([]error, len(workers))
	for i, w := range workers {
		mux := core.NewAckMux(hosts[w])
		s, err := core.NewReliableSender(hosts[w], tplan.TreeID, reducer,
			wire.DefaultGeometry, 10, rcfg)
		if err != nil {
			return nil, err
		}
		mux.Register(s)
		senders[i] = s
		stream, rng := senderWorkload(cfg.Seed, w, cfg.PairsPerSender, cfg.Vocab, want)
		slot := &feedErrs[i]
		feed := func() {
			for _, kv := range stream {
				if err := s.Send([]byte(kv.Key), kv.Value); err != nil {
					*slot = err
					return
				}
			}
			s.End()
		}
		if cfg.StartJitter <= 0 {
			feed() // synchronized fan-in: the whole stream queues at t=0
			continue
		}
		// Staggered start: each sender begins at its own deterministic
		// offset, drawn from its seed stream after the pairs so jitter
		// never perturbs the workload itself.
		delay := netsim.Time(rng.Int63n(int64(netsim.Duration(cfg.StartJitter)) + 1))
		nw.Eng.After(delay, feed)
	}

	// Bound the run: retransmission storms terminate (cumulative ACKs make
	// progress every RTO), but a bound turns a regression into an error
	// instead of a hang.
	if err := nw.Run(200_000_000); err != nil {
		return nil, fmt.Errorf("experiments: incast: %w", err)
	}
	for i, err := range feedErrs {
		if err != nil {
			return nil, fmt.Errorf("experiments: incast: sender %d feed: %w", i, err)
		}
	}

	res := &IncastResult{Cfg: cfg, Completion: nw.Now()}
	for i, s := range senders {
		if !s.Done() {
			return nil, fmt.Errorf("experiments: incast: sender %d incomplete: %v", i, s.Err())
		}
		res.Transmissions += s.Stats.Transmissions
		res.Retransmissions += s.Stats.Retransmissions
		res.PairsSent += s.Stats.PairsSent
	}
	if !col.Complete() {
		return nil, fmt.Errorf("experiments: incast: collector incomplete (%+v)", col.Stats)
	}
	// Correctness gate: exactly-once aggregation despite retransmission.
	if err := verifyExactOnce(col, want); err != nil {
		return nil, fmt.Errorf("experiments: incast: %w", err)
	}
	// Edge admission stats, worker→switch direction only (port 0 is every
	// host's uplink).
	for _, w := range workers {
		st := nw.PortStats(w, 0)
		res.FramesAttempted += st.TxFrames + st.DropsFull + st.DropsLoss
		res.FramesDropped += st.DropsFull + st.DropsLoss
	}
	if cfg.PoolBytes > 0 {
		// Shared-memory mode adds a second loss point: the switch's own
		// egress (ACK + flush streams through the pool). Count it, or the
		// figure would report ~0% drops while retransmissions show real
		// loss. Poolless runs skip this so historical metrics are
		// untouched.
		for p := 0; p < nw.NumPorts(sw); p++ {
			st := nw.PortStats(sw, p)
			res.FramesAttempted += st.TxFrames + st.DropsPool + st.DropsFull + st.DropsLoss
			res.FramesDropped += st.DropsPool + st.DropsFull + st.DropsLoss
		}
	}
	res.DropRatePct = 100 * stats.Ratio(float64(res.FramesDropped), float64(res.FramesAttempted))
	return res, nil
}

// incastRefCache memoizes loss-free reference runs across the sweep's
// points: every queue-size point of a trial needs the same reference, so
// computing it once per (seed, size) config saves the bulk of the figure's
// wall-clock. Incast is deterministic in its config, so a concurrent
// duplicate computation stores an identical value — benign.
var incastRefCache sync.Map // IncastConfig -> *IncastResult

func incastReference(cfg IncastConfig) (*IncastResult, error) {
	if v, ok := incastRefCache.Load(cfg); ok {
		return v.(*IncastResult), nil
	}
	res, err := Incast(cfg)
	if err != nil {
		return nil, err
	}
	incastRefCache.Store(cfg, res)
	return res, nil
}

func init() {
	queues := []int{2048, 4096, 8192, 16384, 65536}
	pts := make([]Point, len(queues))
	for i, q := range queues {
		pts[i] = Point{Label: fmt.Sprintf("%dKiB", q/1024), X: float64(q)}
	}
	Register(&Spec{
		Name:   "incast",
		Title:  "Extension: incast under small buffers (edge + root swept) — edge gate + root replay buffer under loss (paper: losses left open)",
		XLabel: "port queue",
		Points: pts,
		Metrics: []string{
			"drop_rate_pct",
			"retransmissions_per_kpkt",
			"completion_inflation_x",
		},
		Run: func(pt Point, tr Trial) (map[string]float64, error) {
			base := IncastConfig{
				Seed:           tr.Seed,
				Senders:        scaledInt(24, tr.Scale, 4),
				PairsPerSender: scaledInt(1200, tr.Scale, 120),
			}
			small := base
			small.QueueBytes = int(pt.X)
			res, err := Incast(small)
			if err != nil {
				return nil, err
			}
			// The loss-free reference for completion inflation: identical
			// workload, testbed-sized buffers. It is independent of the
			// swept queue size, so all points of one trial share it.
			ref, err := incastReference(base)
			if err != nil {
				return nil, err
			}
			dataPkts := res.Transmissions - res.Retransmissions
			return map[string]float64{
				"drop_rate_pct":            res.DropRatePct,
				"retransmissions_per_kpkt": 1000 * stats.Ratio(float64(res.Retransmissions), float64(dataPkts)),
				"completion_inflation_x":   stats.Ratio(float64(res.Completion), float64(ref.Completion)),
			}, nil
		},
	})

	// incast-jitter: the same fan-in at one fixed small queue, sweeping the
	// sender start-time stagger — how much deterministic jitter defuses the
	// synchronized burst that causes the loss in the first place.
	jitters := []time.Duration{0, 25 * time.Microsecond, 100 * time.Microsecond, 400 * time.Microsecond}
	jpts := make([]Point, len(jitters))
	for i, j := range jitters {
		jpts[i] = Point{Label: fmt.Sprintf("%dus", j.Microseconds()), X: float64(j.Microseconds())}
	}
	Register(&Spec{
		Name:   "incast-jitter",
		Title:  "Extension: staggered sender starts under incast (4 KiB queues) — jitter vs loss",
		XLabel: "start jitter",
		Points: jpts,
		Metrics: []string{
			"drop_rate_pct",
			"retransmissions_per_kpkt",
			"completion_inflation_x",
		},
		Run: func(pt Point, tr Trial) (map[string]float64, error) {
			base := IncastConfig{
				Seed:           tr.Seed,
				Senders:        scaledInt(24, tr.Scale, 4),
				PairsPerSender: scaledInt(1200, tr.Scale, 120),
			}
			jittered := base
			jittered.QueueBytes = 4096
			jittered.StartJitter = time.Duration(pt.X) * time.Microsecond
			res, err := Incast(jittered)
			if err != nil {
				return nil, err
			}
			// Inflation is measured against the loss-free synchronized
			// reference, so it prices in both the residual loss recovery
			// and the stagger itself.
			ref, err := incastReference(base)
			if err != nil {
				return nil, err
			}
			dataPkts := res.Transmissions - res.Retransmissions
			return map[string]float64{
				"drop_rate_pct":            res.DropRatePct,
				"retransmissions_per_kpkt": 1000 * stats.Ratio(float64(res.Retransmissions), float64(dataPkts)),
				"completion_inflation_x":   stats.Ratio(float64(res.Completion), float64(ref.Completion)),
			}, nil
		},
	})
}
