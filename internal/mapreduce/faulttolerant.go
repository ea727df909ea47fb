package mapreduce

import (
	"fmt"
	"sort"
	"time"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/faults"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
)

// Fault-tolerant shuffle: RunJobFT executes a DAIET MapReduce job while a
// fault schedule (internal/faults) crashes switches, flaps links, and
// stalls hosts underneath it, and still produces a final result
// byte-identical to the fault-free run.
//
// The recovery design is round-based exactly-once:
//
//   - Each aggregation tree runs in rounds, every round pinned to a fresh
//     epoch (core.TreeConfig.PinEpoch + Sender.SetEpoch +
//     Collector.BeginEpoch). A round either completes — its aggregate is
//     merged into the tree's final result and its mappers retire — or is
//     aborted, and nothing of it survives: stale in-flight packets are
//     discarded by epoch filters at switches and reducers, so a re-driven
//     pair can never double-count.
//   - The controller's Monitor declares switches/links dead after a
//     simulated-time DeadTimeout and detects crash-restart cycles through
//     the switch boot generation. A round whose tree touches a dead or
//     rebooted component is aborted and re-planned around the failure
//     (PlanTreeAvoiding) — the aggregation-tree failover path. Partial
//     aggregates lost in a crashed switch's memory are re-driven by
//     resending the affected mappers' streams in the next round.
//   - Mappers with no surviving path wait; rounds proceed over the
//     reachable subset and a supplementary round covers returners. If no
//     aggregation tree can be installed, the round falls back to host-side
//     aggregation: mappers stream straight to the reducer and the
//     collector combines — "no worse than without in-network computation".
//   - Rounds stuck past RoundTimeout (loss windows too short for the
//     liveness timeout to blame a component) are aborted and re-driven.
//
// All control actions happen at RunUntil control points, between event
// windows, so a fault run is deterministic in its inputs.

// FTConfig tunes the fault-tolerant driver. The zero value gets defaults.
type FTConfig struct {
	// DeadTimeout is how long a switch/link may be unresponsive before the
	// monitor declares it dead (the failover trigger). Default 200µs.
	DeadTimeout time.Duration
	// PollPeriod is the control-plane polling interval. Default
	// DeadTimeout/2.
	PollPeriod time.Duration
	// RoundTimeout aborts and re-drives a round that has not completed —
	// the backstop for loss windows no liveness verdict explains. It must
	// exceed the fault-free round time. Default 4ms.
	RoundTimeout time.Duration
	// MaxRounds bounds recovery attempts per reducer tree. Default 32.
	MaxRounds int
	// MaxEvents bounds the final drain (0 keeps the default 200M).
	MaxEvents uint64
}

func (c FTConfig) withDefaults() FTConfig {
	if c.DeadTimeout == 0 {
		c.DeadTimeout = 200 * time.Microsecond
	}
	if c.PollPeriod == 0 {
		c.PollPeriod = c.DeadTimeout / 2
	}
	if c.PollPeriod <= 0 {
		c.PollPeriod = time.Microsecond
	}
	if c.RoundTimeout == 0 {
		c.RoundTimeout = 4 * time.Millisecond
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 32
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 200_000_000
	}
	return c
}

// FTReport is one fault-tolerant run's outcome.
type FTReport struct {
	Job        string
	PerReducer []ReducerReport
	// TotalPairsIn counts pairs emitted by the map phase (pre-shuffle).
	TotalPairsIn uint64
	// Completion is the virtual time the last tree finished (END arrival);
	// Elapsed is the fabric time after the final drain.
	Completion netsim.Time
	Elapsed    netsim.Time

	// Recovery accounting.
	RoundsStarted  int
	RoundsAborted  int    // all aborts (failover + timeout)
	Failovers      int    // aborts attributed to dead/rebooted components
	HostFallbacks  int    // rounds run without an aggregation tree
	LostPairs      int    // partial aggregates resident in crashed switches
	RecoveredPairs uint64 // pairs re-driven in restart rounds
	StaleDropped   uint64 // stale-epoch packets discarded at the reducers
	Faults         faults.Stats
}

// ftTree is one reducer tree's recovery state machine.
type ftTree struct {
	idx     int // reducer index (spill column)
	reducer netsim.NodeID
	col     *core.Collector
	agg     core.AggFunc
	merged  map[string]uint32

	pending   []netsim.NodeID // mappers not yet delivered
	attempted map[netsim.NodeID]bool

	active       bool
	epoch        uint8
	roundMappers []netsim.NodeID
	plan         *controller.TreePlan // nil: host-side aggregation round
	roundStart   netsim.Time
	rounds       int
	// tainted marks the active round as untrustworthy even if it appears
	// to complete: a link its traffic may have used flapped mid-round. A
	// flap shorter than the liveness timeout is the one failure that can
	// silently discard some frames of a flow while delivering later ones
	// (a crash drops everything including the END; queue overflow cannot
	// happen at testbed-sized buffers), so an END after a flap proves
	// nothing — the round is re-driven instead of merged.
	tainted bool

	done         bool
	lastComplete netsim.Time // written by the reducer's END handler
}

// RunJobFT executes one DAIET-mode job under the given fault schedule and
// returns per-reducer outputs verified against the reference — identical
// to what the fault-free run produces. See the file comment for the
// recovery contract.
func (c *Cluster) RunJobFT(job Job, splits [][]string, sched faults.Schedule, cfg FTConfig) (*FTReport, error) {
	cfg = cfg.withDefaults()
	if len(splits) != len(c.Mappers) {
		return nil, fmt.Errorf("mapreduce: %d splits for %d mappers", len(splits), len(c.Mappers))
	}
	agg, spills, pairsIn, err := c.mapPhase(job, splits, len(c.Reducers))
	if err != nil {
		return nil, err
	}
	rep := &FTReport{Job: job.Name, TotalPairsIn: pairsIn}

	mapperIdx := make(map[netsim.NodeID]int, len(c.Mappers))
	for i, m := range c.Mappers {
		mapperIdx[m] = i
	}

	// Fault machinery: injector over the cluster's programs and hosts, a
	// liveness monitor over its controller.
	swTargets := make(map[netsim.NodeID]faults.SwitchTarget, len(c.Programs))
	for id, prog := range c.Programs {
		swTargets[id] = prog
	}
	hostTargets := make(map[netsim.NodeID]faults.HostTarget, len(c.Hosts))
	for id, h := range c.Hosts {
		hostTargets[id] = h
	}
	inj := faults.NewInjector(c.Net, sched, swTargets, hostTargets)
	mon := controller.NewMonitor(c.Ctl, cfg.DeadTimeout)

	trees := make([]*ftTree, len(c.Reducers))
	for i, r := range c.Reducers {
		t := &ftTree{
			idx:       i,
			reducer:   r,
			agg:       agg,
			merged:    make(map[string]uint32),
			pending:   append([]netsim.NodeID(nil), c.Mappers...),
			attempted: make(map[netsim.NodeID]bool),
		}
		t.col = core.NewCollector(uint32(r), agg, c.Cfg.Geometry, len(c.Mappers))
		t.col.Attach(c.Hosts[r])
		host := c.Hosts[r]
		tt := t
		t.col.OnComplete = func() { tt.lastComplete = host.Now() }
		trees[i] = t
	}

	d := &ftDriver{c: c, cfg: cfg, job: job, spills: spills, mapperIdx: mapperIdx,
		rep: rep, mon: mon, trees: trees}

	// Initial rounds at t=0 over the intact fabric.
	for _, t := range trees {
		if err := d.startRound(t, 0); err != nil {
			return nil, err
		}
	}

	// Control loop: advance the fabric to the next control time (fault
	// onset or liveness poll), then — quiescent — inject faults, poll
	// liveness, and react.
	pollEvery := netsim.Duration(cfg.PollPeriod)
	pollAt := pollEvery
	guard := 64 + 4*len(sched) + 4*cfg.MaxRounds*len(trees)*int(cfg.RoundTimeout/cfg.PollPeriod+1)
	for iter := 0; ; iter++ {
		if iter > guard {
			return nil, fmt.Errorf("mapreduce: fault-tolerant driver made no progress after %d control steps (t=%v)",
				iter, c.Net.Now())
		}
		allDone := true
		for _, t := range trees {
			allDone = allDone && t.done
		}
		if allDone {
			break
		}
		next := pollAt
		if at, ok := inj.NextAt(); ok && at < next {
			next = at
		}
		if err := c.Net.RunUntil(next); err != nil {
			return nil, err
		}
		now := next
		if err := inj.ApplyDue(now); err != nil {
			return nil, err
		}
		pollRep, err := mon.Poll(now)
		if err != nil {
			return nil, err
		}
		if err := d.step(now, &pollRep); err != nil {
			return nil, err
		}
		if now >= pollAt {
			pollAt += pollEvery
		}
	}

	// Drain stale in-flight traffic so the fabric ends quiescent.
	if err := c.Net.Run(cfg.MaxEvents); err != nil {
		return nil, fmt.Errorf("mapreduce: fault-tolerant drain: %w", err)
	}

	rep.Faults = inj.Stats
	rep.LostPairs = inj.Stats.LostPairs
	rep.Elapsed = c.Net.Now()
	rep.PerReducer = make([]ReducerReport, len(trees))
	for i, t := range trees {
		if t.lastComplete > rep.Completion {
			rep.Completion = t.lastComplete
		}
		rep.StaleDropped += t.col.Stats.StaleEpochDropped
		out := make([]core.KV, 0, len(t.merged))
		for k, v := range t.merged {
			out = append(out, core.KV{Key: k, Value: v})
		}
		sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
		rep.PerReducer[i] = ReducerReport{
			Reducer:       t.reducer,
			PayloadBytes:  t.col.Stats.PayloadBytes,
			PairsReceived: t.col.Stats.PairsReceived,
			UniqueKeys:    len(out),
			Output:        out,
		}
		// The end-to-end exactly-once oracle: despite crashes, re-drives,
		// and stale traffic, the merged result equals the reference
		// computed directly from the spills — the fault-free answer.
		if err := verifyAgainstReference(spills, i, agg, out); err != nil {
			return nil, fmt.Errorf("mapreduce: fault-tolerant run diverged: %w", err)
		}
	}
	return rep, nil
}

// ftDriver bundles the per-run context the control loop threads around.
type ftDriver struct {
	c         *Cluster
	cfg       FTConfig
	job       Job
	spills    [][]*spill
	mapperIdx map[netsim.NodeID]int
	rep       *FTReport
	mon       *controller.Monitor
	trees     []*ftTree
}

// step reacts to one control point: finishes completed rounds, aborts
// broken or stuck ones, and (re)starts rounds for idle trees.
func (d *ftDriver) step(now netsim.Time, pollRep *controller.PollReport) error {
	avoid := d.mon.Avoid()
	for _, t := range d.trees {
		if t.done {
			continue
		}
		if t.active && !t.tainted && d.roundFlapped(t, pollRep) {
			t.tainted = true
		}
		if t.active && t.col.Complete() {
			if t.tainted {
				// Completion after a mid-round flap is not proof of
				// integrity: abort and re-drive under a fresh epoch.
				d.abortRound(t, true)
			} else {
				d.finishRound(t)
			}
		}
		if t.active {
			broken := d.roundBroken(t, pollRep, avoid)
			timedOut := now-t.roundStart >= netsim.Duration(d.cfg.RoundTimeout)
			if broken || timedOut {
				d.abortRound(t, broken)
			}
		}
		if !t.active && !t.done {
			if err := d.startRound(t, now); err != nil {
				return err
			}
		}
	}
	return nil
}

// roundFlapped reports whether any link the active round's traffic may
// traverse took a down transition since the last poll: tree edges for
// planned rounds, any fabric link for host-side rounds (their routes are
// not pinned, so be conservative).
func (d *ftDriver) roundFlapped(t *ftTree, pollRep *controller.PollReport) bool {
	if len(pollRep.FlappedLinks) == 0 {
		return false
	}
	if t.plan == nil {
		return true
	}
	for _, l := range pollRep.FlappedLinks {
		for child, parent := range t.plan.Parent {
			if topology.LinkKey(child, parent) == l {
				return true
			}
		}
	}
	return false
}

// roundBroken reports whether the active round's topology was invalidated:
// a tree switch died or rebooted (its share of the aggregate is gone), a
// tree edge died, or — for host-side rounds — a participating mapper lost
// its path to the reducer.
func (d *ftDriver) roundBroken(t *ftTree, pollRep *controller.PollReport, avoid *topology.Avoid) bool {
	if t.plan != nil {
		for _, sw := range t.plan.SwitchNodes {
			if avoid.Nodes[sw] {
				return true
			}
			for _, r := range pollRep.RestartedSwitches {
				if r == sw {
					return true
				}
			}
		}
		for child, parent := range t.plan.Parent {
			if avoid.Links[topology.LinkKey(child, parent)] {
				return true
			}
		}
		return false
	}
	next := d.c.Fab.NextHopsAvoiding(t.reducer, avoid) // one BFS for all mappers
	for _, m := range t.roundMappers {
		if _, ok := next[m]; !ok {
			return true
		}
	}
	return false
}

// finishRound merges a completed round and retires its mappers.
func (d *ftDriver) finishRound(t *ftTree) {
	for k, v := range t.col.Result() {
		if cur, ok := t.merged[k]; ok {
			t.merged[k] = t.agg.Combine(cur, v)
		} else {
			t.merged[k] = v
		}
	}
	retired := make(map[netsim.NodeID]bool, len(t.roundMappers))
	for _, m := range t.roundMappers {
		retired[m] = true
	}
	remaining := t.pending[:0]
	for _, m := range t.pending {
		if !retired[m] {
			remaining = append(remaining, m)
		}
	}
	t.pending = remaining
	d.teardown(t)
	t.active = false
	if len(t.pending) == 0 {
		t.done = true
	}
}

// abortRound discards an active round; epoch filters neutralize whatever
// of it is still in flight.
func (d *ftDriver) abortRound(t *ftTree, failover bool) {
	d.teardown(t)
	t.active = false
	d.rep.RoundsAborted++
	if failover {
		d.rep.Failovers++
	}
}

// teardown removes the round's tree from the switches that still hold it
// (crashed ones already lost it).
func (d *ftDriver) teardown(t *ftTree) {
	if t.plan != nil {
		d.c.Ctl.UninstallTree(t.plan)
		t.plan = nil
	}
}

// startRound begins the next recovery round for a tree: plan over the
// reachable pending mappers avoiding the dead set, install epoch-pinned
// switch state (or fall back to host-side aggregation), and re-drive the
// mappers' streams under the new epoch.
func (d *ftDriver) startRound(t *ftTree, now netsim.Time) error {
	avoid := d.mon.Avoid()
	reachable, _ := d.c.Ctl.MapperSubsetAvoiding(t.reducer, t.pending, avoid)
	if len(reachable) == 0 || avoid.Nodes[t.reducer] {
		return nil // fully orphaned: wait for recovery, retry next poll
	}
	if t.rounds >= d.cfg.MaxRounds {
		return fmt.Errorf("mapreduce: reducer %d exceeded %d recovery rounds", t.idx, d.cfg.MaxRounds)
	}
	t.rounds++
	t.epoch++
	d.rep.RoundsStarted++

	expectedEnds := len(reachable)
	t.plan = nil
	plan, err := d.c.Ctl.PlanTreeAvoiding(t.reducer, reachable, avoid)
	if err == nil {
		if err := d.c.Ctl.InstallTree(plan, controller.TreeOptions{
			Agg:       d.job.Agg,
			TableSize: d.c.Cfg.TableSize,
			Epoch:     t.epoch,
			PinEpoch:  true,
		}); err == nil {
			t.plan = plan
			expectedEnds = plan.RootChildren()
		}
	}
	if t.plan == nil {
		// Host-side aggregation fallback: no switch participates; the
		// collector combines raw streams ("no worse than without
		// in-network computation").
		d.rep.HostFallbacks++
	}
	t.col.BeginEpoch(t.epoch, expectedEnds)
	t.roundMappers = reachable
	t.roundStart = now
	t.tainted = false

	for _, m := range reachable {
		sp := d.spills[d.mapperIdx[m]][t.idx]
		if t.attempted[m] {
			d.rep.RecoveredPairs += uint64(sp.n)
		}
		t.attempted[m] = true
		if err := d.c.sendSpill(d.c.Hosts[m], t.reducer, sp, t.epoch); err != nil {
			return err
		}
	}
	t.active = true
	return nil
}
