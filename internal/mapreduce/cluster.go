package mapreduce

import (
	"fmt"
	"time"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/transport"
	"github.com/daiet/daiet/internal/wire"
)

// tcpShufflePort is where reducers accept baseline shuffle connections.
const tcpShufflePort = 6000

// ClusterConfig sizes one MapReduce deployment. The zero value reproduces
// the paper's §5 layout in miniature: every worker on one switch.
type ClusterConfig struct {
	NumMappers  int // default 24 (paper)
	NumReducers int // default 12 (paper)
	// Plan overrides the fabric (default: single switch, like bmv2).
	Plan *topology.Plan
	// Geometry is the pair layout (default: 16-byte keys).
	Geometry wire.PairGeometry
	// MaxPairsPerPacket bounds DAIET packetization (default 10, paper).
	MaxPairsPerPacket int
	// TableSize is the per-tree register array size (default 16384, paper).
	TableSize int
	// SRAMBudget per switch (default 10 MB, paper's sizing).
	SRAMBudget int
	// Seed drives the fabric's randomness.
	Seed uint64
	// MSS for the TCP baseline (default transport.DefaultMSS).
	MSS int
	// QueueBytes sizes the default fabric's per-port queues. The default
	// (64 MiB) emulates the paper's testbed — a bmv2 software switch over
	// veth, whose buffering is effectively unbounded and which the paper's
	// loss-free evaluation depends on ("we do not address the issue of
	// packet losses"). Set a small value to study incast loss instead.
	QueueBytes int
	// SwitchPool, when non-nil, attaches a shared-memory buffer pool of
	// this size to every switch (netsim Dynamic-Threshold admission across
	// the switch's egress ports) instead of the per-port QueueBytes FIFOs.
	// Plans that carry their own Pools map are honored either way; this
	// knob is the uniform-sizing shortcut. A crash (Program.Crash) empties
	// the pool along with the rest of the switch state.
	SwitchPool *netsim.PoolConfig
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.NumMappers == 0 {
		c.NumMappers = 24
	}
	if c.NumReducers == 0 {
		c.NumReducers = 12
	}
	if c.Geometry.KeyWidth == 0 {
		c.Geometry = wire.DefaultGeometry
	}
	if c.MaxPairsPerPacket == 0 {
		// Derive from the parse budget, capped at the paper's 10: wide-key
		// geometries fit fewer pairs per packet.
		c.MaxPairsPerPacket = c.Geometry.MaxPairsPerPacket()
		if c.MaxPairsPerPacket > wire.DefaultMaxPairs {
			c.MaxPairsPerPacket = wire.DefaultMaxPairs
		}
	}
	if c.TableSize == 0 {
		c.TableSize = 16384
	}
	if c.SRAMBudget == 0 {
		c.SRAMBudget = 10 << 20
	}
	if c.MSS == 0 {
		c.MSS = transport.DefaultMSS
	}
	if c.QueueBytes == 0 {
		c.QueueBytes = 64 << 20
	}
	return c
}

// Cluster is a realized MapReduce deployment: fabric, programs, hosts, and
// the mapper/reducer placement.
type Cluster struct {
	Cfg      ClusterConfig
	Net      *netsim.Network
	Fab      *topology.Fabric
	Ctl      *controller.Controller
	Programs map[netsim.NodeID]*core.Program
	Hosts    map[netsim.NodeID]*transport.Host
	Mappers  []netsim.NodeID
	Reducers []netsim.NodeID
}

// NewCluster builds the fabric and installs baseline routing.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg = cfg.withDefaults()
	plan := cfg.Plan
	if plan == nil {
		plan = topology.SingleSwitch(cfg.NumMappers+cfg.NumReducers,
			netsim.LinkConfig{QueueBytes: cfg.QueueBytes})
	}
	if len(plan.Hosts) < cfg.NumMappers+cfg.NumReducers {
		return nil, fmt.Errorf("mapreduce: plan has %d hosts, need %d",
			len(plan.Hosts), cfg.NumMappers+cfg.NumReducers)
	}
	nw := netsim.New(cfg.Seed)
	d, err := controller.Deploy(nw, plan, core.ProgramConfig{
		Geometry:          cfg.Geometry,
		MaxPairsPerPacket: cfg.MaxPairsPerPacket,
		SRAMBudget:        cfg.SRAMBudget,
	})
	if err != nil {
		return nil, err
	}
	if cfg.SwitchPool != nil {
		for _, sw := range plan.Switches {
			if _, has := plan.Pools[sw]; has {
				continue // the plan's own per-tier sizing wins
			}
			if err := nw.SetNodePool(sw, *cfg.SwitchPool); err != nil {
				return nil, err
			}
		}
	}
	return &Cluster{
		Cfg:      cfg,
		Net:      nw,
		Fab:      d.Fab,
		Ctl:      d.Ctl,
		Programs: d.Programs,
		Hosts:    d.Hosts,
		Mappers:  plan.Hosts[:cfg.NumMappers],
		Reducers: plan.Hosts[cfg.NumMappers : cfg.NumMappers+cfg.NumReducers],
	}, nil
}

// ReducerReport is one reducer's measured outcome — one sample of each
// Figure-3 box plot.
type ReducerReport struct {
	Reducer netsim.NodeID

	// Shuffle-side measurements at the reducer host.
	PacketsReceived uint64 // frames arriving at the reducer NIC
	PayloadBytes    uint64 // application bytes (DAIET payloads / TCP stream bytes)
	PairsReceived   uint64 // pairs crossing the wire into the reducer

	// Reduce-side measurements.
	ReduceTime time.Duration
	UniqueKeys int
	Output     []core.KV
}

// Result is one job run's full outcome.
type Result struct {
	Mode         Mode
	Job          string
	PerReducer   []ReducerReport
	TotalPairsIn uint64 // pairs emitted by all mappers (pre-shuffle)
	Elapsed      netsim.Time
	// SwitchTreeStats collects the per-(switch, tree) counters of the DAIET
	// run, captured before tree teardown. Empty for baseline modes.
	SwitchTreeStats []core.TreeStats
}

// RunJob executes one job over the given input splits (len(splits) must
// equal NumMappers) in the given mode and returns per-reducer measurements.
// The DAIET and UDP modes are the one-tenant case of RunJobs. Each RunJob
// call assumes a fresh cluster for clean counters; reusing a cluster
// across runs accumulates NIC statistics.
func (c *Cluster) RunJob(job Job, splits [][]string, mode Mode) (*Result, error) {
	if len(splits) != len(c.Mappers) {
		return nil, fmt.Errorf("mapreduce: %d splits for %d mappers", len(splits), len(c.Mappers))
	}
	switch mode {
	case ModeDAIET, ModeUDPBaseline:
		res, err := c.shuffle([]TenantJob{{Job: job, Splits: splits, Mappers: c.Mappers, Reducers: c.Reducers}},
			mode == ModeDAIET)
		if err != nil {
			return nil, err
		}
		return &res[0].Result, nil
	case ModeTCPBaseline:
		return c.shuffleTCP(job, splits)
	}
	return nil, fmt.Errorf("mapreduce: unknown mode %d", mode)
}

// mapPhase resolves a job's aggregation function and runs its map phase
// (host-local, no network): one spill per (mapper, reducer) and the number
// of pairs they hold.
func (c *Cluster) mapPhase(job Job, splits [][]string, reducers int) (core.AggFunc, [][]*spill, uint64, error) {
	agg, err := core.FuncByID(job.Agg)
	if err != nil {
		return nil, nil, 0, err
	}
	spills, err := runMapPhase(job, splits, reducers, c.Cfg.Geometry)
	if err != nil {
		return nil, nil, 0, err
	}
	var pairs uint64
	for m := range spills {
		for r := range spills[m] {
			pairs += uint64(spills[m][r].n)
		}
	}
	return agg, spills, pairs, nil
}

// shuffle runs every tenant's job through the DAIET protocol in one shared
// run: each tenant's map phase, then every reducer's collector (and, when
// aggregate, its aggregation tree, tagged with the tenant's traffic
// classes) up front, then every mapper's spills queued at t=0, then
// per-tenant reduce, verification against the host-side reference, and
// tree teardown. Without aggregate it is the UDP baseline: no tree is
// installed and each collector expects one END per mapper.
func (c *Cluster) shuffle(tenants []TenantJob, aggregate bool) ([]TenantResult, error) {
	type tenantRun struct {
		agg        core.AggFunc
		spills     [][]*spill
		pairs      uint64
		plans      []*controller.TreePlan
		collectors []*core.Collector
		baseRx     []transport.HostStats
		remaining  int
		completion netsim.Time
	}
	runs := make([]*tenantRun, len(tenants))
	for t := range tenants {
		tj := &tenants[t]
		agg, spills, pairs, err := c.mapPhase(tj.Job, tj.Splits, len(tj.Reducers))
		if err != nil {
			return nil, err
		}
		runs[t] = &tenantRun{agg: agg, spills: spills, pairs: pairs, remaining: len(tj.Reducers)}
	}

	for t := range tenants {
		tj, tr := &tenants[t], runs[t]
		for _, r := range tj.Reducers {
			plan, err := c.Ctl.PlanTree(r, tj.Mappers)
			if err != nil {
				return nil, err
			}
			expectedEnds := len(tj.Mappers)
			if aggregate {
				if err := c.Ctl.InstallTree(plan, controller.TreeOptions{
					Agg:       tj.Job.Agg,
					TableSize: c.Cfg.TableSize,
					DataClass: tj.DataClass,
					AckClass:  tj.AckClass,
					Tenant:    t,
				}); err != nil {
					return nil, err
				}
				tr.plans = append(tr.plans, plan)
				expectedEnds = plan.RootChildren()
			}
			col := core.NewCollector(uint32(r), tr.agg, c.Cfg.Geometry, expectedEnds)
			col.KeepRaw = true
			col.Attach(c.Hosts[r])
			col.OnComplete = func() {
				tr.remaining--
				if tr.remaining == 0 {
					tr.completion = c.Net.Now()
				}
			}
			tr.collectors = append(tr.collectors, col)
			tr.baseRx = append(tr.baseRx, c.Hosts[r].Stats)
		}
	}

	for t := range tenants {
		tj := &tenants[t]
		for m, mapper := range tj.Mappers {
			for ri, reducer := range tj.Reducers {
				if err := c.sendSpill(c.Hosts[mapper], reducer, runs[t].spills[m][ri], 0); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := c.Net.Run(0); err != nil {
		return nil, err
	}

	mode := ModeUDPBaseline
	if aggregate {
		mode = ModeDAIET
	}
	results := make([]TenantResult, len(tenants))
	for t := range tenants {
		tj, tr := &tenants[t], runs[t]
		reports := make([]ReducerReport, len(tj.Reducers))
		for i, col := range tr.collectors {
			if !col.Complete() {
				return nil, fmt.Errorf("mapreduce: tenant %d reducer %d shuffle incomplete (%+v)",
					t, i, col.Stats)
			}
			out, dur := reduceSortAll(col.RawPairs, tr.agg)
			reports[i] = ReducerReport{
				Reducer:         tj.Reducers[i],
				PacketsReceived: c.Hosts[tj.Reducers[i]].Stats.FramesRx - tr.baseRx[i].FramesRx,
				PayloadBytes:    col.Stats.PayloadBytes,
				PairsReceived:   col.Stats.PairsReceived,
				ReduceTime:      dur,
				UniqueKeys:      len(out),
				Output:          out,
			}
			if err := verifyAgainstReference(tr.spills, i, tr.agg, out); err != nil {
				return nil, fmt.Errorf("mapreduce: tenant %d: %w", t, err)
			}
		}
		// Capture switch-side counters, then leave the fabric clean for
		// subsequent runs.
		var treeStats []core.TreeStats
		for _, plan := range tr.plans {
			for _, sw := range plan.SwitchNodes {
				if st, ok := c.Programs[sw].TreeStats(plan.TreeID); ok {
					treeStats = append(treeStats, st)
				}
			}
			c.Ctl.UninstallTree(plan)
		}
		results[t] = TenantResult{
			Result: Result{
				Mode:            mode,
				Job:             tj.Job.Name,
				PerReducer:      reports,
				TotalPairsIn:    tr.pairs,
				Elapsed:         c.Net.Now(),
				SwitchTreeStats: treeStats,
			},
			Tenant:     t,
			Completion: tr.completion,
		}
	}
	return results, nil
}

// sendSpill streams one mapper's spill for one reducer into the reducer's
// tree under the given round epoch (0 outside fault-tolerant rounds), then
// ENDs it. This is every shuffle's one send loop.
func (c *Cluster) sendSpill(host *transport.Host, reducer netsim.NodeID, sp *spill, epoch uint8) error {
	s, err := core.NewSender(host, uint32(reducer), reducer, c.Cfg.Geometry, c.Cfg.MaxPairsPerPacket)
	if err != nil {
		return err
	}
	s.SetEpoch(epoch)
	// Bulk producer: the whole stream is queued before the event loop
	// runs, so batching the carrier hand-offs leaves wire order and timing
	// unchanged.
	s.SetMaxBurst(32)
	for i := 0; i < sp.n; i++ {
		k, v := sp.record(i)
		if err := s.Send(wire.TrimKey(k), v); err != nil {
			return err
		}
	}
	s.End()
	return nil
}

// shuffleTCP runs the job through the classic sorted shuffle over tcplite.
func (c *Cluster) shuffleTCP(job Job, splits [][]string) (*Result, error) {
	agg, spills, pairsIn, err := c.mapPhase(job, splits, len(c.Reducers))
	if err != nil {
		return nil, err
	}
	type rxState struct {
		runs    [][]byte
		open    int
		done    bool
		payload uint64
		baseRx  uint64
	}
	states := make([]*rxState, len(c.Reducers))
	for i, r := range c.Reducers {
		host := c.Hosts[r]
		st := &rxState{baseRx: host.Stats.FramesRx}
		states[i] = st
		host.ListenTCP(tcpShufflePort, func(conn *transport.Conn) {
			st.open++
			idx := len(st.runs)
			st.runs = append(st.runs, nil)
			conn.OnData = func(p []byte) {
				st.runs[idx] = append(st.runs[idx], p...)
				st.payload += uint64(len(p))
			}
			conn.OnClose = func() {
				st.open--
				conn.Close()
				if st.open == 0 && len(st.runs) == len(c.Mappers) {
					st.done = true
				}
			}
		})
	}

	// Mapper-side sort, then stream each partition over its own connection.
	for m, mapper := range c.Mappers {
		for ri, reducer := range c.Reducers {
			sp := spills[m][ri]
			sp.sortRecords()
			conn := c.Hosts[mapper].DialTCP(reducer, tcpShufflePort, func(conn *transport.Conn) {})
			conn.SetMSS(c.Cfg.MSS)
			if len(sp.data) > 0 {
				conn.Write(sp.data)
			}
			conn.Close()
		}
	}
	if err := c.Net.Run(0); err != nil {
		return nil, err
	}

	reports := make([]ReducerReport, len(c.Reducers))
	for i, st := range states {
		if !st.done {
			return nil, fmt.Errorf("mapreduce: reducer %d TCP shuffle incomplete (%d runs, %d open)",
				i, len(st.runs), st.open)
		}
		runs := make([][]core.KV, len(st.runs))
		var pairs uint64
		for j, raw := range st.runs {
			runs[j] = decodeRun(c.Cfg.Geometry, raw)
			pairs += uint64(len(runs[j]))
		}
		out, dur := reduceMergeRuns(runs, agg)
		reports[i] = ReducerReport{
			Reducer:         c.Reducers[i],
			PacketsReceived: c.Hosts[c.Reducers[i]].Stats.FramesRx - st.baseRx,
			PayloadBytes:    st.payload,
			PairsReceived:   pairs,
			ReduceTime:      dur,
			UniqueKeys:      len(out),
			Output:          out,
		}
		if err := verifyAgainstReference(spills, i, agg, out); err != nil {
			return nil, err
		}
	}
	return &Result{
		Mode:         ModeTCPBaseline,
		Job:          job.Name,
		PerReducer:   reports,
		TotalPairsIn: pairsIn,
		Elapsed:      c.Net.Now(),
	}, nil
}
