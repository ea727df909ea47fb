package experiments

import (
	"fmt"
	"sync"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/stats"
	"github.com/daiet/daiet/internal/telemetry"
	"github.com/daiet/daiet/internal/topology"
)

// BigIncast is incast at fabric scale: hundreds of senders across several
// racks, all feeding one multi-rack aggregation tree, with every switch
// modeled as a shared-memory device — one buffer pool per switch under
// Dynamic-Threshold admission (netsim.BufferPool), not per-port FIFOs.
//
// The pressure points are no longer the host uplinks (those keep
// testbed-sized private queues): each rack's leaf aggregates its senders
// and emits spill/flush traffic upward, so the spill fan-in of all racks
// converges through the spine onto the root leaf, and the ACK streams back
// to every sender contend with that upstream traffic inside each leaf's
// shared memory. Loss is recovered hop by hop: host→leaf by the reliable
// gate (go-back-N senders, cumulative ACKs), and every switch→switch and
// switch→reducer hop by the switch-side replay buffer (TreeConfig.
// RootReplay generalized to interior hops: each switch retains its
// emissions until its tree parent — gate or collector — cumulatively
// acknowledges them). The run is exactly-once verified end to end.
//
// The sweep compares DT sharing against equal static partitioning of the
// same total memory (alpha = 0, reserve = total/ports — the per-port model
// every earlier figure used), reporting drop rate, completion inflation
// against a loss-free reference, pool high-water marks, and per-sender
// fairness.

// BigIncastConfig sizes one fabric-scale incast trial.
type BigIncastConfig struct {
	Seed uint64
	// Racks is the number of sender racks (default 4); the reducer sits
	// alone in one extra rack, so the tree crosses the spine.
	Racks int
	// Spines is the spine tier width (default 1). The megaincast figure
	// runs 2 so the fabric has real path diversity at 16 racks.
	Spines int
	// Senders is the total fan-in degree, spread evenly across racks
	// (default 256).
	Senders int
	// PairsPerSender is the mean stream length; each sender draws its
	// actual length within ±20% from its own seed stream (default 150).
	PairsPerSender int
	// Vocab is the shared key space (default 4096). With Vocab well above
	// TableSize, register collisions force steady spill traffic upward —
	// the fan-in the switch memories must absorb.
	Vocab int
	// TableSize is the per-tree register array per switch (default 1024).
	TableSize int
	// PoolBytes is each leaf switch's shared memory (default 256 KiB).
	// Spines get 2× (tier sizing: more ports, more transit).
	PoolBytes int
	// PoolReserve is the per-port guaranteed reserve under DT (default
	// 2 KiB ≈ one full DAIET frame burst).
	PoolReserve int
	// Alpha is the DT factor (default 1).
	Alpha float64
	// StaticPartition replaces DT with an equal static split of the same
	// total bytes: reserve = PoolBytes/ports, alpha = 0. The comparison
	// baseline the figure sweeps against.
	StaticPartition bool
	// EdgeQueueBytes sizes the host uplink private queues (default 64 MiB,
	// the loss-free testbed edge — this figure studies switch memory).
	EdgeQueueBytes int
	// Replay bounds each switch's per-tree replay buffer (default 64).
	Replay int
	// Telemetry, when non-nil, records a fabric timeline during the run:
	// every pooled switch is probed on the config's cadence (pool, port
	// and tree-residency gauges) and the INT-style path sampler covers
	// the switch tier. Nil leaves the workload hot path untouched.
	Telemetry *telemetry.Config
}

func (c BigIncastConfig) withDefaults() BigIncastConfig {
	if c.Racks == 0 {
		c.Racks = 4
	}
	if c.Spines == 0 {
		c.Spines = 1
	}
	if c.Senders == 0 {
		c.Senders = 256
	}
	if c.PairsPerSender == 0 {
		c.PairsPerSender = 150
	}
	if c.Vocab == 0 {
		c.Vocab = 4096
	}
	if c.TableSize == 0 {
		c.TableSize = 1024
	}
	if c.PoolBytes == 0 {
		c.PoolBytes = 256 << 10
	}
	if c.PoolReserve == 0 {
		c.PoolReserve = 2 << 10
	}
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	if c.EdgeQueueBytes == 0 {
		c.EdgeQueueBytes = 64 << 20
	}
	if c.Replay == 0 {
		c.Replay = 64
	}
	return c
}

// BigIncastResult is one trial's outcome.
type BigIncastResult struct {
	Cfg BigIncastConfig

	// Switch-egress admission accounting, summed over every pooled switch
	// port (the only loss points: host uplinks are loss-free).
	FramesAttempted uint64
	FramesDropped   uint64
	DropRatePct     float64

	// Host reliability-layer work.
	Transmissions   uint64
	Retransmissions uint64
	PairsSent       uint64
	// Switch replay-buffer work (hop-by-hop go-back-N).
	SwitchRetransmissions uint64
	FlushStalls           uint64

	// PoolHighWaterPct is the worst switch's peak occupancy as a percent
	// of its memory.
	PoolHighWaterPct float64
	// PortFairness is Jain's index over per-sender network cost
	// (transmissions per pair shipped): 1.0 when the shared memory serves
	// every sender's ports evenly, sinking toward 1/n when drops single
	// out a few senders for extra retransmission rounds.
	PortFairness float64

	// Completion is the virtual time at which every sender finished and
	// the collector completed.
	Completion netsim.Time

	// Engine-scale accounting: executed simulator events, accepted frames
	// and the engine's arena footprint. All deterministic in (Seed, config).
	Events     uint64
	Frames     uint64
	ArenaStats netsim.ArenaStats

	// Timeline is the recorded fabric timeline, non-nil only when
	// Cfg.Telemetry asked for one.
	Timeline *telemetry.Timeline
}

// bigIncastPlan builds the fabric: Racks sender racks plus one reducer
// rack, one spine, shared-memory pools on every switch.
func bigIncastPlan(cfg BigIncastConfig) (plan *topology.Plan, senders []netsim.NodeID, reducer netsim.NodeID) {
	perRack := (cfg.Senders + cfg.Racks - 1) / cfg.Racks
	plan = topology.LeafSpine(cfg.Racks+1, cfg.Spines, perRack,
		netsim.LinkConfig{QueueBytes: cfg.EdgeQueueBytes})
	plan.Name = fmt.Sprintf("bigincast-%ds-%dr", cfg.Senders, cfg.Racks)
	senders = plan.Hosts[:cfg.Senders]
	reducer = plan.Hosts[cfg.Racks*perRack] // first host of the reducer rack

	ports := func(sw netsim.NodeID) int {
		n := 0
		for _, l := range plan.Links {
			if l.A == sw || l.B == sw {
				n++
			}
		}
		return n
	}
	pool := func(total, ports int) netsim.PoolConfig {
		if cfg.StaticPartition {
			// Equal static split of the same memory: the per-port FIFO
			// model, expressed in pool terms (alpha 0 forbids borrowing).
			return netsim.PoolConfig{TotalBytes: total, ReserveBytes: total / ports, Alpha: 0}
		}
		// Floors are hard-carved out of the memory: bytes reserved per port
		// leave the borrowable pool permanently, so an unchecked floor on a
		// high-radix tier doesn't just over-commit (which validation
		// rejects) — it silently degenerates DT into the static split by
		// carving everything. Cap the total carve at a quarter of the
		// memory so sharing stays the dominant regime (the 128 KiB sweep
		// point meets a 65-port leaf here).
		reserve := cfg.PoolReserve
		if cap := total / (4 * ports); reserve > cap {
			reserve = cap
		}
		return netsim.PoolConfig{TotalBytes: total, ReserveBytes: reserve, Alpha: cfg.Alpha}
	}
	for i, sw := range plan.Switches {
		total := cfg.PoolBytes
		if i >= cfg.Racks+1 {
			total *= 2 // spine tier: more ports, more transit memory
		}
		plan.SetPool(sw, pool(total, ports(sw)))
	}
	return plan, senders, reducer
}

// BigIncast runs one fabric-scale incast round and verifies the aggregate
// is exact. Deterministic in (Seed, config).
func BigIncast(cfg BigIncastConfig) (*BigIncastResult, error) { return bigIncast(cfg, nil) }

// bigIncast is BigIncast with an optional frame tracer on the fabric (see
// incast).
func bigIncast(cfg BigIncastConfig, tracer netsim.FrameTracer) (*BigIncastResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Senders < cfg.Racks {
		return nil, fmt.Errorf("experiments: bigincast: %d senders across %d racks", cfg.Senders, cfg.Racks)
	}
	plan, workers, reducer := bigIncastPlan(cfg)

	nw := netsim.New(cfg.Seed)
	nw.SetFrameTracer(tracer)
	d, err := controller.Deploy(nw, plan, core.ProgramConfig{})
	if err != nil {
		return nil, err
	}
	// Hop-by-hop reliable tree: every switch gates its own tree children
	// (rack hosts at the leaves, child switches upstream) and retains its
	// emissions in a replay buffer until its parent acknowledges them.
	// Synchronized fan-in: every worker queues its whole stream at t=0.
	round, err := fanIn(d, reducer, workers, controller.TreeOptions{
		TableSize:  cfg.TableSize,
		RootReplay: cfg.Replay,
		HopReplay:  true,
	}, 32, cfg.Seed, cfg.PairsPerSender, cfg.Vocab, feedAll)
	if err != nil {
		return nil, err
	}

	var rec *telemetry.Recorder
	if cfg.Telemetry != nil {
		rec = telemetry.NewRecorder(nw, *cfg.Telemetry)
		for _, swNode := range plan.Switches {
			if err := rec.WatchSwitch(swNode, d.Programs[swNode]); err != nil {
				return nil, fmt.Errorf("experiments: bigincast: %w", err)
			}
		}
		rec.EnablePathTrace(plan.Switches)
		rec.Start()
		if err := rec.RunSampled(500_000_000); err != nil {
			return nil, fmt.Errorf("experiments: bigincast: %w", err)
		}
	} else if err := nw.Run(500_000_000); err != nil {
		return nil, fmt.Errorf("experiments: bigincast: %w", err)
	}

	sent, err := round.check()
	if err != nil {
		return nil, fmt.Errorf("experiments: bigincast: %w", err)
	}
	res := &BigIncastResult{Cfg: cfg, Completion: nw.Now(),
		Transmissions: sent.Transmissions, Retransmissions: sent.Retransmissions, PairsSent: sent.PairsSent}
	if rec != nil {
		res.Timeline = rec.Timeline()
	}
	perSender := make([]float64, len(round.senders))
	for i, s := range round.senders {
		// Cost per pair, so ±20% stream lengths don't read as unfairness.
		pairs := s.Stats.PairsSent
		if pairs == 0 {
			pairs = 1 // degenerate empty stream: END-only cost
		}
		perSender[i] = float64(s.Stats.Transmissions) / float64(pairs)
	}
	res.PortFairness = jainIndex(perSender)

	for _, swNode := range round.tree.SwitchNodes {
		if st, ok := d.Programs[swNode].TreeStats(round.tree.TreeID); ok {
			res.SwitchRetransmissions += st.RootRetransmissions
			res.FlushStalls += st.FlushStalls
		}
	}
	// Switch-egress admission accounting + pool pressure.
	for _, swNode := range plan.Switches {
		for p := 0; p < nw.NumPorts(swNode); p++ {
			st := nw.PortStats(swNode, p)
			res.FramesAttempted += st.TxFrames + st.DropsPool + st.DropsFull + st.DropsLoss
			res.FramesDropped += st.DropsPool + st.DropsFull + st.DropsLoss
		}
		ps, ok := nw.PoolStats(swNode)
		if !ok {
			return nil, fmt.Errorf("experiments: bigincast: switch %d has no pool", swNode)
		}
		if pct := 100 * float64(ps.HighWater) / float64(ps.TotalBytes); pct > res.PoolHighWaterPct {
			res.PoolHighWaterPct = pct
		}
	}
	res.DropRatePct = 100 * stats.Ratio(float64(res.FramesDropped), float64(res.FramesAttempted))
	res.Events = nw.Processed()
	res.Frames = nw.TotalStats().TxFrames
	res.ArenaStats = nw.ArenaStats()
	return res, nil
}

// bigIncastCache memoizes trials shared across sweep points: the loss-free
// reference (one per seed) and the static-partition twins (one per seed ×
// pool size; static ignores alpha, which the sweep varies). BigIncast is
// deterministic in its config, so concurrent duplicates are benign.
var bigIncastCache sync.Map // BigIncastConfig -> *BigIncastResult

func bigIncastCached(cfg BigIncastConfig) (*BigIncastResult, error) {
	if v, ok := bigIncastCache.Load(cfg); ok {
		return v.(*BigIncastResult), nil
	}
	res, err := BigIncast(cfg)
	if err != nil {
		return nil, err
	}
	bigIncastCache.Store(cfg, res)
	return res, nil
}

func init() {
	type pt struct {
		poolKiB int
		alpha   float64
	}
	sweep := []pt{
		{128, 0.5}, {128, 2}, {128, 8},
		{512, 0.5}, {512, 2}, {512, 8},
	}
	pts := make([]Point, len(sweep))
	for i, s := range sweep {
		pts[i] = Point{
			Label: fmt.Sprintf("%dKiB-a%g", s.poolKiB, s.alpha),
			X:     float64(s.poolKiB<<10) + s.alpha, // unique axis key
		}
	}
	Register(&Spec{
		Name: "bigincast",
		Title: "Extension: incast at fabric scale — 256 senders / 4 racks, shared-memory switch buffers, " +
			"DT (pool × alpha sweep) vs equal static split of the same bytes",
		XLabel: "pool-alpha",
		Points: pts,
		Metrics: []string{
			"drop_rate_pct",
			"static_drop_rate_pct",
			"completion_inflation_x",
			"pool_highwater_pct",
			"port_fairness",
		},
		Run: func(p Point, tr Trial) (map[string]float64, error) {
			var s pt
			for i := range sweep {
				if pts[i].Label == p.Label {
					s = sweep[i]
				}
			}
			base := BigIncastConfig{
				Seed:           tr.Seed,
				Senders:        scaledInt(256, tr.Scale, 16),
				Racks:          scaledInt(4, tr.Scale, 2),
				PairsPerSender: scaledInt(150, tr.Scale, 30),
				Vocab:          scaledInt(4096, tr.Scale, 320),
				TableSize:      scaledInt(1024, tr.Scale, 64), // keep the collision ratio at small scale
			}
			dt := base
			dt.PoolBytes = s.poolKiB << 10
			dt.Alpha = s.alpha
			res, err := BigIncast(dt)
			if err != nil {
				return nil, err
			}
			// The static twin: identical workload and memory, alpha = 0,
			// reserve = total/ports. Shared across this pool size's alpha
			// points (the split has no alpha to sweep).
			static := base
			static.PoolBytes = s.poolKiB << 10
			static.StaticPartition = true
			statRes, err := bigIncastCached(static)
			if err != nil {
				return nil, err
			}
			// The loss-free reference for completion inflation: identical
			// workload through effectively unbounded switch memory.
			ref := base
			ref.PoolBytes = 64 << 20
			ref.Alpha = 8
			refRes, err := bigIncastCached(ref)
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"drop_rate_pct":          res.DropRatePct,
				"static_drop_rate_pct":   statRes.DropRatePct,
				"completion_inflation_x": stats.Ratio(float64(res.Completion), float64(refRes.Completion)),
				"pool_highwater_pct":     res.PoolHighWaterPct,
				"port_fairness":          res.PortFairness,
			}, nil
		},
	})
}
