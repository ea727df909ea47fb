package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/graphgen"
	"github.com/daiet/daiet/internal/mlps"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/pregel"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/transport"
	"github.com/daiet/daiet/internal/wire"
	"github.com/daiet/daiet/internal/workload"
)

// The isolated probes time each layer's hot exported call on inputs shaped
// like the workloads, one layer at a time with nothing else running. They
// are evidence for a mechanism: a probe gain of x% predicts at most x% times
// the layer's span share on trial_ms_p50 (see README, "How the metrics
// interact").

// probeResult is the cost of one operation.
type probeResult struct {
	ns     float64
	allocs float64
}

// timeLoop calls step until d of timed work has accumulated. step reports
// how many operations it did and how long its timed part took, so untimed
// preparation (fresh frames, draining the event loop) can sit between timed
// batches. The allocation count covers the whole loop, so only probes
// without untimed allocation report it.
func timeLoop(d time.Duration, step func() (ops int, timed time.Duration, err error)) (probeResult, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var ops int
	var total time.Duration
	for total < d || ops == 0 {
		n, t, err := step()
		if err != nil {
			return probeResult{}, err
		}
		ops += n
		total += t
	}
	runtime.ReadMemStats(&after)
	return probeResult{
		ns:     float64(total) / float64(ops),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(ops),
	}, nil
}

// timed adapts a step with no untimed part.
func timed(f func() (int, error)) func() (int, time.Duration, error) {
	return func() (int, time.Duration, error) {
		t0 := time.Now()
		n, err := f()
		return n, time.Since(t0), err
	}
}

// sink is a fabric node that discards what it receives.
type sink struct{}

func (sink) Attach(*netsim.Network, netsim.NodeID) {}
func (sink) HandleFrame(int, []byte)               {}

// captureCarrier is a core.BurstCarrier that discards payloads, keeping a
// copy of each while capture is set.
type captureCarrier struct {
	id       netsim.NodeID
	capture  bool
	payloads [][]byte
}

func (c *captureCarrier) ID() netsim.NodeID { return c.id }

func (c *captureCarrier) SendUDP(_ netsim.NodeID, _, _ uint16, payload []byte) {
	if c.capture {
		c.payloads = append(c.payloads, append([]byte(nil), payload...))
	}
}

func (c *captureCarrier) SendUDPBurst(dst netsim.NodeID, sp, dp uint16, payloads [][]byte) {
	for _, p := range payloads {
		c.SendUDP(dst, sp, dp, p)
	}
}

const (
	probeHostA  = topology.HostBase
	probeHostB  = topology.HostBase + 1
	probeSwitch = topology.SwitchBase
	probeBatch  = 256
)

var probeSink int // keeps results alive so the compiler cannot drop the calls

// prober carries what the probes share: the time each may take, where the
// results go, and a small Figure-3-shaped corpus — the key population of
// wordcount-*.
type prober struct {
	seed   uint64
	d      time.Duration
	m      map[string]float64
	corpus *workload.Corpus
	words  [][]byte // corpus.Stream as key bytes
	frame  []byte   // a full DATA frame: ten words of one partition, host A to host B
}

// runProbes measures every probe for about `seconds` each and stores the
// results in m under their metric names.
func runProbes(seed uint64, seconds float64, m map[string]float64) error {
	corpus, err := workload.Generate(workload.CorpusSpec{
		Seed: seed, Reducers: wcReducers, VocabPerReducer: 200,
		MeanMultiplicity: wcMultiplicity, TableSize: wcTableSize, CollisionFree: true,
	})
	if err != nil {
		return err
	}
	p := &prober{seed: seed, d: time.Duration(seconds * float64(time.Second)), m: m, corpus: corpus}
	p.words = make([][]byte, len(corpus.Stream))
	for i, w := range corpus.Stream {
		p.words[i] = []byte(w)
	}
	// Ten words of one partition are collision-free in a 16K table.
	resident := make([][]byte, wire.DefaultMaxPairs)
	for i := range resident {
		resident[i] = []byte(corpus.Vocab[0][i])
	}
	if p.frame, err = buildDataFrame(resident); err != nil {
		return err
	}
	for _, probe := range []func() error{
		p.hashing, p.wire, p.senderAndCollector, p.program, p.forwarding,
		p.engine, p.fabricBuild, p.tcplite, p.analytics,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// buildDataFrame assembles a DATA frame from host A for the tree rooted at
// host B, one pair of value 1 per key.
func buildDataFrame(keys [][]byte) ([]byte, error) {
	geom := wire.DefaultGeometry
	buf := wire.NewBuffer(wire.DefaultHeadroom, len(keys)*geom.PairWidth())
	for _, k := range keys {
		if err := wire.AppendPair(buf, geom, k, 1); err != nil {
			return nil, err
		}
	}
	hdr := wire.DaietHeader{Type: wire.TypeData, TreeID: uint32(probeHostB), NumPairs: uint16(len(keys))}
	return wire.BuildDaietFrame(buf, hdr, uint32(probeHostA), uint32(probeHostB), wire.UDPPortDaiet), nil
}

// hashing: the map phase's partitioner over the corpus.
func (p *prober) hashing() error {
	r, err := timeLoop(p.d, timed(func() (int, error) {
		for _, w := range p.corpus.Stream {
			probeSink += workload.PartitionOf(w, wire.DefaultGeometry.KeyWidth, wcReducers)
		}
		return len(p.corpus.Stream), nil
	}))
	p.m["hashing.partition_ns_per_key"] = r.ns
	return err
}

// wire: build and decode a full 10-pair DATA frame.
func (p *prober) wire() error {
	keys := p.words[:wire.DefaultMaxPairs]
	r, err := timeLoop(p.d, timed(func() (int, error) {
		for i := 0; i < probeBatch; i++ {
			f, err := buildDataFrame(keys)
			if err != nil {
				return 0, err
			}
			probeSink += len(f)
		}
		return probeBatch, nil
	}))
	if err != nil {
		return err
	}
	p.m["wire.build_frame_ns"] = r.ns

	var pkt wire.DaietPacket
	r, err = timeLoop(p.d, timed(func() (int, error) {
		for i := 0; i < probeBatch; i++ {
			if err := wire.DecodeDaietPacket(wire.DefaultGeometry, p.frame, &pkt); err != nil {
				return 0, err
			}
		}
		return probeBatch, nil
	}))
	p.m["wire.decode_packet_ns"] = r.ns
	return err
}

// senderAndCollector packetizes the corpus with core.Sender onto a
// discarding carrier, batched as the MapReduce shuffle batches it, then
// feeds the captured payloads to core.Collector the way a UDP-baseline
// reducer receives them (raw pairs kept for the reduce-side sort).
func (p *prober) senderAndCollector() error {
	geom := wire.DefaultGeometry
	carrier := &captureCarrier{id: probeHostA, capture: true}
	sendAll := func() (int, error) {
		s, err := core.NewSender(carrier, uint32(probeHostB), probeHostB, geom, wire.DefaultMaxPairs)
		if err != nil {
			return 0, err
		}
		s.SetMaxBurst(32)
		for _, w := range p.words {
			if err := s.Send(w, 1); err != nil {
				return 0, err
			}
		}
		s.End()
		return len(p.words), nil
	}
	if _, err := sendAll(); err != nil { // the captured pass
		return err
	}
	carrier.capture = false
	r, err := timeLoop(p.d, timed(sendAll))
	if err != nil {
		return err
	}
	p.m["core.sender_send_ns_per_pair"] = r.ns
	p.m["core.sender_allocs_per_pair"] = r.allocs

	sum, err := core.FuncByID(core.AggSum)
	if err != nil {
		return err
	}
	r, err = timeLoop(p.d, timed(func() (int, error) {
		col := core.NewCollector(uint32(probeHostB), sum, geom, 1)
		col.KeepRaw = true
		for _, payload := range carrier.payloads {
			col.Ingest(payload)
		}
		if !col.Complete() || col.Stats.PairsReceived != uint64(len(p.words)) {
			return 0, fmt.Errorf("collector probe: %+v", col.Stats)
		}
		return len(p.words), nil
	}))
	p.m["core.collector_ingest_ns_per_pair"] = r.ns
	p.m["core.collector_allocs_per_pair"] = r.allocs
	return err
}

// newProbeSwitch puts one DAIET switch between two sinks, routes host B out
// of port 1 and, for table > 0, configures B's tree with that many cells.
func (p *prober) newProbeSwitch(table int) (*netsim.Network, *core.Program, error) {
	nw := netsim.New(p.seed)
	prog, err := core.NewProgram(core.ProgramConfig{})
	if err != nil {
		return nil, nil, err
	}
	nw.AddNode(probeSwitch, prog.Switch())
	nw.AddNode(probeHostA, sink{})
	nw.AddNode(probeHostB, sink{})
	link := netsim.LinkConfig{QueueBytes: faninEdgeQueue}
	nw.Connect(probeSwitch, probeHostA, link)
	outPort, _ := nw.Connect(probeSwitch, probeHostB, link)
	if err := prog.InstallRoute(uint32(probeHostB), outPort); err != nil {
		return nil, nil, err
	}
	if table > 0 {
		err = prog.ConfigureTree(core.TreeConfig{
			TreeID: uint32(probeHostB), OutPort: outPort, Children: 1,
			Agg: core.AggSum, TableSize: table,
		})
	}
	return nw, prog, err
}

// handleFrames returns a step that pushes a batch of copies of frame into
// the switch from port 0, timing only the pipeline; the event loop drains
// untimed between batches. ops counts the frame's pairs (one for a frame
// without any).
func handleFrames(nw *netsim.Network, prog *core.Program, frame []byte, pairs int) func() (int, time.Duration, error) {
	bufs := make([][]byte, probeBatch)
	for i := range bufs {
		bufs[i] = make([]byte, len(frame))
	}
	sw := prog.Switch()
	return func() (int, time.Duration, error) {
		for _, b := range bufs {
			copy(b, frame)
		}
		t0 := time.Now()
		for _, b := range bufs {
			sw.HandleFrame(0, b)
		}
		dt := time.Since(t0)
		return probeBatch * pairs, dt, nw.Run(0)
	}
}

// program: core.Program through the switch pipeline. A resident key
// combines; on a one-cell table holding another key every probed pair
// collides and takes the spill path (one spill packet per ten).
func (p *prober) program() error {
	tree := uint32(probeHostB)
	nw, prog, err := p.newProbeSwitch(wcTableSize)
	if err != nil {
		return err
	}
	r, err := timeLoop(p.d, handleFrames(nw, prog, p.frame, wire.DefaultMaxPairs))
	if err != nil {
		return err
	}
	if st, _ := prog.TreeStats(tree); st.PairsIn == 0 || st.PairsCombined+st.PairsStored != st.PairsIn {
		return fmt.Errorf("combine probe left the fast path: %+v", st)
	}
	p.m["core.program_combine_ns_per_pair"] = r.ns

	if nw, prog, err = p.newProbeSwitch(1); err != nil {
		return err
	}
	occupant, err := buildDataFrame([][]byte{[]byte("occupant")})
	if err != nil {
		return err
	}
	prog.Switch().HandleFrame(0, occupant)
	r, err = timeLoop(p.d, handleFrames(nw, prog, p.frame, wire.DefaultMaxPairs))
	if err != nil {
		return err
	}
	if st, _ := prog.TreeStats(tree); st.PairsSpilled+1 != st.PairsIn {
		return fmt.Errorf("spill probe did not spill every pair: %+v", st)
	}
	p.m["core.program_spill_ns_per_pair"] = r.ns
	return nil
}

// forwarding: the smallest frame (UDP, no payload, not the DAIET port)
// through the same pipeline with no tree configured — bare forwarding.
func (p *prober) forwarding() error {
	nw, prog, err := p.newProbeSwitch(0)
	if err != nil {
		return err
	}
	buf := wire.NewBuffer(wire.DefaultHeadroom, 0)
	udp := wire.UDP{SrcPort: 9, DstPort: 9}
	udp.SerializeTo(buf)
	ip := wire.IPv4{Protocol: wire.ProtocolUDP, TTL: wire.DefaultTTL,
		Src: wire.IPFromNode(uint32(probeHostA)), Dst: wire.IPFromNode(uint32(probeHostB))}
	ip.SerializeTo(buf)
	eth := wire.Ethernet{Dst: wire.MACFromNode(uint32(probeHostB)), Src: wire.MACFromNode(uint32(probeHostA)),
		EtherType: wire.EtherTypeIPv4}
	eth.SerializeTo(buf)
	r, err := timeLoop(p.d, handleFrames(nw, prog, buf.Bytes(), 1))
	if err != nil {
		return err
	}
	if nw.PortStats(probeSwitch, 1).TxFrames == 0 {
		return fmt.Errorf("forward probe: nothing left the switch (%+v)", prog.Switch().Counters)
	}
	p.m["dataplane.forward_ns_per_frame"] = r.ns
	return nil
}

// engine: netsim alone. Schedule one event and execute one over a standing
// heap of a thousand timers; then admit, serialize and deliver full frames
// over one link.
func (p *prober) engine() error {
	eng := netsim.NewEngine()
	const standing = 1024
	fired := 0
	fn := func() { fired++ }
	for i := 1; i <= standing; i++ {
		eng.Schedule(netsim.Time(i), fn)
	}
	r, err := timeLoop(p.d, timed(func() (int, error) {
		for i := 0; i < 4096; i++ {
			eng.Schedule(eng.Now()+standing, fn)
			eng.Step()
		}
		return 4096, nil
	}))
	if err != nil {
		return err
	}
	probeSink += fired
	p.m["netsim.event_ns"] = r.ns

	nw := netsim.New(p.seed)
	nw.AddNode(probeHostA, sink{})
	nw.AddNode(probeHostB, sink{})
	nw.Connect(probeHostA, probeHostB, netsim.LinkConfig{QueueBytes: faninEdgeQueue})
	r, err = timeLoop(p.d, timed(func() (int, error) {
		for i := 0; i < probeBatch; i++ {
			nw.Send(probeHostA, 0, p.frame)
		}
		return probeBatch, nw.Run(0)
	}))
	if err != nil {
		return err
	}
	if st := nw.PortStats(probeHostA, 0); st.TxFrames == 0 || st.DropsFull != 0 {
		return fmt.Errorf("hop probe: %+v", st)
	}
	p.m["netsim.hop_ns_per_frame"] = r.ns
	return nil
}

// fabricBuild: Network.Connect and controller.InstallRouting on
// fanin-wide's 1024-host plan, each on a fresh network per step (routing
// memoises per destination, so a reused fabric would time map lookups).
func (p *prober) fabricBuild() error {
	plan, _, _ := (&faninDriver{sz: faninWide}).plan()
	r, err := timeLoop(p.d, func() (int, time.Duration, error) {
		nw := netsim.New(p.seed)
		for _, id := range plan.Switches {
			nw.AddNode(id, sink{})
		}
		for _, id := range plan.Hosts {
			nw.AddNode(id, sink{})
		}
		t0 := time.Now()
		for _, l := range plan.Links {
			nw.Connect(l.A, l.B, l.Cfg)
		}
		return len(plan.Links), time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	p.m["netsim.connect_us_per_link"] = r.ns / 1e3

	r, err = timeLoop(p.d, func() (int, time.Duration, error) {
		programs := make(map[netsim.NodeID]*core.Program, len(plan.Switches))
		var buildErr error
		fab := plan.Realize(netsim.New(p.seed),
			func(id netsim.NodeID) netsim.Node {
				prog, err := core.NewProgram(core.ProgramConfig{})
				if err != nil {
					buildErr = err
					return sink{}
				}
				programs[id] = prog
				return prog.Switch()
			},
			func(netsim.NodeID) netsim.Node { return sink{} })
		if buildErr != nil {
			return 0, 0, buildErr
		}
		ctl := controller.New(fab, programs)
		t0 := time.Now()
		err := ctl.InstallRouting()
		return len(plan.Switches), time.Since(t0), err
	})
	p.m["controller.route_install_us_per_switch"] = r.ns / 1e3
	return err
}

// tcplite: 1 MiB over transport's reliable stream between two directly
// linked hosts.
func (p *prober) tcplite() error {
	const size, port = 1 << 20, 6000
	data := make([]byte, size)
	r, err := timeLoop(p.d, timed(func() (int, error) {
		nw := netsim.New(p.seed)
		a, b := transport.NewHost(), transport.NewHost()
		nw.AddNode(probeHostA, a)
		nw.AddNode(probeHostB, b)
		nw.Connect(probeHostA, probeHostB, netsim.LinkConfig{QueueBytes: faninEdgeQueue})
		received := 0
		b.ListenTCP(port, func(conn *transport.Conn) {
			conn.OnData = func(seg []byte) { received += len(seg) }
			conn.OnClose = func() { conn.Close() }
		})
		conn := a.DialTCP(probeHostB, port, func(*transport.Conn) {})
		conn.Write(data)
		conn.Close()
		if err := nw.Run(0); err != nil {
			return 0, err
		}
		if received != size {
			return 0, fmt.Errorf("tcplite probe: %d of %d bytes arrived", received, size)
		}
		return size, nil
	}))
	p.m["transport.tcplite_ns_per_byte"] = r.ns
	return err
}

// analytics: one worker's gradient on an Adam-sized mini-batch, and
// PageRank supersteps on a small R-MAT graph (one message per edge each).
func (p *prober) analytics() error {
	ds := mlps.SyntheticMNIST(p.seed, 500)
	model, grad := mlps.NewModel(), mlps.NewGrad()
	batch := make([]int, 100)
	for i := range batch {
		batch[i] = i
	}
	var loss float64
	r, err := timeLoop(p.d, timed(func() (int, error) {
		loss += model.Gradient(ds, batch, grad)
		return len(batch), nil
	}))
	if err != nil {
		return err
	}
	probeSink += int(loss)
	p.m["mlps.gradient_us_per_sample"] = r.ns / 1e3

	g, err := graphgen.RMAT(graphgen.RMATConfig{Scale: 13, EdgeFactor: overlapEdgeFactor, Seed: p.seed})
	if err != nil {
		return err
	}
	r, err = timeLoop(p.d, timed(func() (int, error) {
		res := pregel.PageRank(g, pregel.Config{Workers: overlapWorkers, MaxSupersteps: 3})
		var msgs int64
		for _, st := range res.Stats {
			msgs += st.Messages
		}
		return int(msgs), nil
	}))
	p.m["pregel.superstep_ns_per_edge"] = r.ns
	return err
}
