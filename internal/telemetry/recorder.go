package telemetry

import (
	"fmt"
	"time"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
)

// Config sizes one Recorder.
type Config struct {
	// Cadence is the node-probe sampling period in virtual time (default
	// 50µs): each watched switch samples its own pool, ports and trees
	// every Cadence ticks.
	Cadence netsim.Time
	// ControlEvery is the RunSampled control-point period (default
	// 10×Cadence): the driver runs the fabric in RunUntil windows of this
	// width and takes one quiescent control-plane sample per window.
	ControlEvery netsim.Time
	// Capacity is each probe stream's ring capacity in records (default
	// 4096). Overflow overwrites the oldest records and is counted.
	Capacity int
	// PathTrace configures INT-style frame sampling; the zero value
	// disables it.
	PathTrace PathTraceConfig
}

func (c Config) withDefaults() Config {
	if c.Cadence == 0 {
		c.Cadence = netsim.Duration(50 * time.Microsecond)
	}
	if c.ControlEvery == 0 {
		c.ControlEvery = 10 * c.Cadence
	}
	if c.Capacity == 0 {
		c.Capacity = 4096
	}
	c.PathTrace = c.PathTrace.withDefaults()
	return c
}

// probe is one watched switch: a record stream written exclusively by the
// node's own timer callbacks.
type probe struct {
	rec    *Recorder
	id     netsim.NodeID
	prog   *core.Program
	trees  []uint32 // snapshot at Start, ascending
	nPorts int
	lastTx []uint64 // per-port accepted frames at the previous sample
	lastDr []uint64 // per-port dropped frames at the previous sample
	s      *series
}

// Recorder is the telemetry subsystem's front end: it owns every record
// stream (probes, control, hop slabs), arms the probe timers, and drives
// sampled runs. All buffers are preallocated at registration time; the
// steady-state sampling path appends into rings.
type Recorder struct {
	cfg    Config
	nw     *netsim.Network
	probes []*probe
	byNode map[netsim.NodeID]*probe

	control *series
	engine  []EngineSample
	tracer  *pathTracer

	// stopped is set (at a control point) once the workload has drained:
	// probe timers observe it and stop re-arming, letting the fabric reach
	// Pending() == 0.
	stopped bool
	started bool
}

// EngineSample is one control-point reading of the engine's arena
// occupancy (netsim.ArenaStats). The samples form the timeline's engine
// section, kept apart from DeterministicBytes: they describe how the
// simulator stored the run, not what the simulated fabric did.
type EngineSample struct {
	At        netsim.Time
	FrameLive int
	FramePeak int
	TimerPeak int
	Bytes     int64
}

// NewRecorder creates a recorder over nw. Watch switches and enable path
// tracing before Start; Start before traffic runs.
func NewRecorder(nw *netsim.Network, cfg Config) *Recorder {
	return &Recorder{
		cfg:     cfg.withDefaults(),
		nw:      nw,
		byNode:  make(map[netsim.NodeID]*probe),
		control: newSeries(0, cfg.withDefaults().Capacity, false),
	}
}

// Config returns the recorder's effective (defaulted) configuration.
func (r *Recorder) Config() Config { return r.cfg }

// WatchSwitch registers node id for cadence probing. prog, when non-nil,
// adds per-tree register-residency samples. Must be called after the
// node's links are connected (the port set is snapshotted here) and
// before Start.
func (r *Recorder) WatchSwitch(id netsim.NodeID, prog *core.Program) error {
	if r.started {
		return fmt.Errorf("telemetry: WatchSwitch(%d) after Start", id)
	}
	if _, dup := r.byNode[id]; dup {
		return fmt.Errorf("telemetry: node %d already watched", id)
	}
	n := r.nw.NumPorts(id)
	p := &probe{
		rec:    r,
		id:     id,
		prog:   prog,
		nPorts: n,
		lastTx: make([]uint64, n),
		lastDr: make([]uint64, n),
		s:      newSeries(uint64(id), r.cfg.Capacity, false),
	}
	r.probes = append(r.probes, p)
	r.byNode[id] = p
	return nil
}

// EnablePathTrace installs the INT-style frame sampler over the given
// nodes (typically the fabric's switches), preallocating one hop slab per
// node. No-op when Config.PathTrace.SampleEvery is zero. Must run before
// Start and before any traffic.
func (r *Recorder) EnablePathTrace(nodes []netsim.NodeID) {
	if r.cfg.PathTrace.SampleEvery == 0 || len(nodes) == 0 {
		return
	}
	r.tracer = newPathTracer(r.cfg.PathTrace, nodes)
	r.nw.SetFrameTracer(r.tracer)
}

// Start snapshots each watched program's tree set and arms every probe's
// first timer. Call from setup context (before Run), after trees are
// installed.
func (r *Recorder) Start() {
	if r.started {
		return
	}
	r.started = true
	for _, p := range r.probes {
		if p.prog != nil {
			p.trees = p.prog.Trees()
		}
		r.nw.Eng.After(r.cfg.Cadence, p.tick)
	}
}

// tick is one probe firing: sample, then re-arm — unless the recorder has
// been stopped, which ends the timer chain so the fabric can drain.
func (p *probe) tick() {
	if p.rec.stopped {
		return
	}
	p.sample()
	p.rec.nw.Eng.After(p.rec.cfg.Cadence, p.tick)
}

// sample reads the node's pool, ports and trees at the current virtual
// time.
func (p *probe) sample() {
	nw := p.rec.nw
	now := nw.Now()
	if ps, ok := nw.PoolStats(p.id); ok {
		p.s.append(Record{At: now, Kind: KindPool, Node: p.id,
			V0: int64(ps.Used), V1: int64(ps.Committed), V2: int64(ps.HighWater), V3: int64(ps.Drops)})
		for c, cs := range ps.Classes {
			p.s.append(Record{At: now, Kind: KindClass, Node: p.id, K: int32(c),
				V0: int64(cs.Used), V1: int64(cs.HighWater), V2: int64(cs.Drops), V3: int64(cs.ReserveBytes)})
		}
	}
	for port := 0; port < p.nPorts; port++ {
		depth := nw.NodeQueueDepth(p.id, port)
		st := nw.PortStats(p.id, port)
		tx := st.TxFrames
		dr := st.DropsPool + st.DropsFull + st.DropsLoss + st.DropsDown
		p.s.append(Record{At: now, Kind: KindPort, Node: p.id, K: int32(port),
			V0: int64(depth), V1: int64(tx - p.lastTx[port]), V2: int64(dr - p.lastDr[port]), V3: int64(tx)})
		p.lastTx[port], p.lastDr[port] = tx, dr
	}
	if p.prog != nil {
		for _, tid := range p.trees {
			res, ok := p.prog.TreeResidency(tid)
			if !ok {
				continue // tree removed (failover re-planning)
			}
			st, _ := p.prog.TreeStats(tid)
			p.s.append(Record{At: now, Kind: KindTree, Node: p.id, K: int32(tid),
				V0: int64(res.Cells), V1: int64(res.SpillPairs), V2: int64(res.ReplayLen),
				V3: int64(st.FlushPacketsOut), V4: int64(st.RootRetransmissions)})
		}
	}
}

// SampleControl takes one control-point sample. Call between runs (before
// Run, at a RunUntil control point, or after Run); RunSampled calls it
// once per window. Pending and Processed go to the deterministic control
// stream; the arena gauges go to the engine section.
func (r *Recorder) SampleControl() {
	now := r.nw.Now()
	r.control.append(Record{At: now, Kind: KindControl,
		V0: int64(r.nw.Pending()), V1: int64(r.nw.Processed())})
	as := r.nw.ArenaStats()
	r.engine = append(r.engine, EngineSample{
		At:        now,
		FrameLive: as.FrameLive,
		FramePeak: as.FramePeak,
		TimerPeak: as.TimerPeak,
		Bytes:     as.Bytes,
	})
}

// ControlEvent appends one labelled control-plane record (fault
// injections, job-driver decisions) at virtual time now. Quiescent
// context only.
func (r *Recorder) ControlEvent(now netsim.Time, note string, node netsim.NodeID, v0 int64) {
	r.control.append(Record{At: now, Kind: KindControl, Node: node, V0: v0, Note: note})
}

// ObserveMonitor subscribes the recorder to a controller liveness
// monitor: every Poll observation (dead/restarted switches, dead/revived/
// flapped links) becomes a KindMonitor record. Poll runs only at
// quiescent control points, so the records join the control stream.
func (r *Recorder) ObserveMonitor(m *controller.Monitor) {
	m.SetObserver(func(now netsim.Time, ev controller.MonitorEvent) {
		r.control.append(Record{At: now, Kind: KindMonitor, Node: ev.A,
			V0: int64(ev.B), Note: ev.Kind})
	})
}

// RunSampled drives the network to completion in ControlEvery windows,
// taking one control sample per window, then winds the probe timers down
// and drains the fabric. maxEvents bounds the total executed event count
// like Network.Run, enforced at window granularity. The recorder must be
// Started.
func (r *Recorder) RunSampled(maxEvents uint64) error {
	if !r.started {
		return fmt.Errorf("telemetry: RunSampled before Start")
	}
	nw := r.nw
	deadline := nw.Now()
	for {
		deadline += r.cfg.ControlEvery
		if err := nw.RunUntil(deadline); err != nil {
			return err
		}
		r.SampleControl()
		if maxEvents > 0 && nw.Processed() >= maxEvents && nw.Pending() > len(r.probes) {
			return fmt.Errorf("telemetry: event budget %d exhausted at t=%v (%d pending)",
				maxEvents, nw.Now(), nw.Pending())
		}
		if nw.Pending() <= len(r.probes) {
			// Every remaining event is a probe timer (each watched node
			// keeps exactly one outstanding until stopped): the workload
			// has drained. Stop the chains and let the fabric empty.
			r.stopped = true
			if err := nw.Run(0); err != nil {
				return err
			}
			r.SampleControl()
			return nil
		}
	}
}

// Timeline merges every deterministic stream — probes in watch order, the
// control stream, and the hop slabs — into (At, Origin, Seq) order and
// attaches the engine-diagnostics section.
func (r *Recorder) Timeline() *Timeline {
	total := len(r.control.buf)
	for _, p := range r.probes {
		total += len(p.s.buf)
	}
	var dropped uint64 = r.control.dropped
	recs := make([]Record, 0, total)
	recs = r.control.snapshot(recs)
	for _, p := range r.probes {
		recs = p.s.snapshot(recs)
		dropped += p.s.dropped
	}
	if r.tracer != nil {
		for _, s := range r.tracer.ordered {
			recs = s.snapshot(recs)
			dropped += s.dropped
		}
	}
	sortRecords(recs)
	return &Timeline{
		Cadence: r.cfg.Cadence,
		Records: recs,
		Dropped: dropped,
		Engine:  append([]EngineSample(nil), r.engine...),
	}
}
