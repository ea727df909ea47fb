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
	c := &Cluster{
		Cfg:      cfg,
		Net:      netsim.New(cfg.Seed),
		Programs: make(map[netsim.NodeID]*core.Program),
		Hosts:    make(map[netsim.NodeID]*transport.Host),
	}
	var buildErr error
	mkSwitch := func(id netsim.NodeID) netsim.Node {
		prog, err := core.NewProgram(core.ProgramConfig{
			Geometry:          cfg.Geometry,
			MaxPairsPerPacket: cfg.MaxPairsPerPacket,
			SRAMBudget:        cfg.SRAMBudget,
		})
		if err != nil {
			buildErr = err
			prog = mustEmptyProgram()
		}
		c.Programs[id] = prog
		return prog.Switch()
	}
	mkHost := func(id netsim.NodeID) netsim.Node {
		h := transport.NewHost()
		c.Hosts[id] = h
		return h
	}
	c.Fab = plan.Realize(c.Net, mkSwitch, mkHost)
	if buildErr != nil {
		return nil, buildErr
	}
	if cfg.SwitchPool != nil {
		for _, sw := range plan.Switches {
			if _, has := plan.Pools[sw]; has {
				continue // the plan's own per-tier sizing wins
			}
			if err := c.Net.SetNodePool(sw, *cfg.SwitchPool); err != nil {
				return nil, err
			}
		}
	}
	c.Mappers = plan.Hosts[:cfg.NumMappers]
	c.Reducers = plan.Hosts[cfg.NumMappers : cfg.NumMappers+cfg.NumReducers]
	c.Ctl = controller.New(c.Fab, c.Programs)
	if err := c.Ctl.InstallRouting(); err != nil {
		return nil, err
	}
	return c, nil
}

func mustEmptyProgram() *core.Program {
	p, err := core.NewProgram(core.ProgramConfig{})
	if err != nil {
		panic(err)
	}
	return p
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
// Each RunJob call assumes a fresh cluster for clean counters; reusing a
// cluster across runs accumulates NIC statistics.
func (c *Cluster) RunJob(job Job, splits [][]string, mode Mode) (*Result, error) {
	if len(splits) != len(c.Mappers) {
		return nil, fmt.Errorf("mapreduce: %d splits for %d mappers", len(splits), len(c.Mappers))
	}
	agg, err := core.FuncByID(job.Agg)
	if err != nil {
		return nil, err
	}

	// ---- Map phase (host-local, no network) ----
	spills, err := runMapPhase(job, splits, len(c.Reducers), c.Cfg.Geometry)
	if err != nil {
		return nil, err
	}
	var totalPairs uint64
	for m := range spills {
		for r := range spills[m] {
			totalPairs += uint64(spills[m][r].n)
		}
	}

	// Snapshot reducer NIC counters so multiple phases on one cluster can
	// be measured independently.
	baseRx := make([]transport.HostStats, len(c.Reducers))
	for i, r := range c.Reducers {
		baseRx[i] = c.Hosts[r].Stats
	}

	// ---- Shuffle phase ----
	var reports []ReducerReport
	var treeStats []core.TreeStats
	switch mode {
	case ModeDAIET, ModeUDPBaseline:
		reports, treeStats, err = c.shuffleDaiet(job, agg, spills, mode == ModeDAIET)
	case ModeTCPBaseline:
		reports, err = c.shuffleTCP(agg, spills)
	default:
		return nil, fmt.Errorf("mapreduce: unknown mode %d", mode)
	}
	if err != nil {
		return nil, err
	}

	// NIC-level packet counts.
	for i := range reports {
		st := c.Hosts[c.Reducers[i]].Stats
		reports[i].PacketsReceived = st.FramesRx - baseRx[i].FramesRx
		reports[i].Reducer = c.Reducers[i]
	}

	// ---- Verification ----
	for i := range reports {
		if err := verifyAgainstReference(spills, i, agg, reports[i].Output); err != nil {
			return nil, err
		}
	}
	return &Result{
		Mode:            mode,
		Job:             job.Name,
		PerReducer:      reports,
		TotalPairsIn:    totalPairs,
		Elapsed:         c.Net.Now(),
		SwitchTreeStats: treeStats,
	}, nil
}

// shuffleDaiet runs the DAIET protocol shuffle; aggregate selects whether
// trees are installed (DAIET mode) or not (UDP baseline). It returns the
// per-reducer reports and, in DAIET mode, the switch-side tree counters.
func (c *Cluster) shuffleDaiet(job Job, agg core.AggFunc, spills [][]*spill, aggregate bool) ([]ReducerReport, []core.TreeStats, error) {
	collectors := make([]*core.Collector, len(c.Reducers))
	plans := make([]*controller.TreePlan, len(c.Reducers))
	for i, r := range c.Reducers {
		plan, err := c.Ctl.PlanTree(r, c.Mappers)
		if err != nil {
			return nil, nil, err
		}
		plans[i] = plan
		expectedEnds := len(c.Mappers)
		if aggregate {
			if err := c.Ctl.InstallTree(plan, controller.TreeOptions{
				Agg:       job.Agg,
				TableSize: c.Cfg.TableSize,
			}); err != nil {
				return nil, nil, err
			}
			expectedEnds = plan.RootChildren()
		}
		col := core.NewCollector(uint32(r), agg, c.Cfg.Geometry, expectedEnds)
		col.KeepRaw = true
		col.Attach(c.Hosts[r])
		collectors[i] = col
	}

	// Every mapper streams each partition then ENDs it.
	for m, mapper := range c.Mappers {
		for ri, reducer := range c.Reducers {
			s, err := core.NewSender(c.Hosts[mapper], uint32(reducer), reducer,
				c.Cfg.Geometry, c.Cfg.MaxPairsPerPacket)
			if err != nil {
				return nil, nil, err
			}
			// Bulk producer: the whole stream is queued at t=0 before the
			// event loop runs, so batching the carrier hand-offs leaves wire
			// order and timing unchanged.
			s.SetMaxBurst(32)
			sp := spills[m][ri]
			for i := 0; i < sp.n; i++ {
				k, v := sp.record(i)
				if err := s.Send(wire.TrimKey(k), v); err != nil {
					return nil, nil, err
				}
			}
			s.End()
		}
	}
	if err := c.Net.Run(0); err != nil {
		return nil, nil, err
	}

	reports := make([]ReducerReport, len(c.Reducers))
	for i, col := range collectors {
		if !col.Complete() {
			return nil, nil, fmt.Errorf("mapreduce: reducer %d shuffle incomplete (%+v)", i, col.Stats)
		}
		out, dur := reduceSortAll(col.RawPairs, agg)
		reports[i] = ReducerReport{
			PayloadBytes:  col.Stats.PayloadBytes,
			PairsReceived: col.Stats.PairsReceived,
			ReduceTime:    dur,
			UniqueKeys:    len(out),
			Output:        out,
		}
	}
	// Capture switch-side counters, then leave the fabric clean for
	// subsequent runs.
	var treeStats []core.TreeStats
	if aggregate {
		for _, plan := range plans {
			for _, sw := range plan.SwitchNodes {
				if st, ok := c.Programs[sw].TreeStats(plan.TreeID); ok {
					treeStats = append(treeStats, st)
				}
			}
			c.Ctl.UninstallTree(plan)
		}
	}
	return reports, treeStats, nil
}

// shuffleTCP runs the classic sorted shuffle over tcplite.
func (c *Cluster) shuffleTCP(agg core.AggFunc, spills [][]*spill) ([]ReducerReport, error) {
	type rxState struct {
		runs    [][]byte
		open    int
		done    bool
		payload uint64
	}
	states := make([]*rxState, len(c.Reducers))
	for i, r := range c.Reducers {
		st := &rxState{}
		states[i] = st
		host := c.Hosts[r]
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
			host := c.Hosts[mapper]
			data := sp.data
			mss := c.Cfg.MSS
			conn := host.DialTCP(reducer, tcpShufflePort, func(conn *transport.Conn) {})
			conn.SetMSS(mss)
			if len(data) > 0 {
				conn.Write(data)
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
			PayloadBytes:  st.payload,
			PairsReceived: pairs,
			ReduceTime:    dur,
			UniqueKeys:    len(out),
			Output:        out,
		}
	}
	return reports, nil
}
