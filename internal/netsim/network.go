package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/daiet/daiet/internal/hashing"
)

// NodeID identifies a host or switch in the fabric. IDs live in a 24-bit
// space so they map into the 10.0.0.0/8 addressing plan of internal/wire.
type NodeID uint32

// Node is anything attached to the fabric. Attach is called exactly once,
// when the node is added; HandleFrame is called by the event loop whenever a
// frame arrives on one of the node's ports. The frame slice is owned by the
// callee after the call; the network never touches it again.
type Node interface {
	Attach(nw *Network, id NodeID)
	HandleFrame(inPort int, frame []byte)
}

// LinkConfig describes one bidirectional link. The zero value is replaced
// by defaults matching a 10 Gb/s data-center edge link.
type LinkConfig struct {
	BandwidthBps int64         // bits per second; default 10e9
	Propagation  time.Duration // one-way propagation delay; default 1µs
	QueueBytes   int           // per-direction FIFO capacity; default 256 KiB
	LossProb     float64       // i.i.d. frame drop probability; default 0
}

func (c LinkConfig) withDefaults() LinkConfig {
	if c.BandwidthBps == 0 {
		c.BandwidthBps = 10_000_000_000
	}
	if c.Propagation == 0 {
		c.Propagation = time.Microsecond
	}
	if c.QueueBytes == 0 {
		c.QueueBytes = 256 << 10
	}
	return c
}

// LinkStats counts traffic for one direction of a link.
type LinkStats struct {
	TxFrames  uint64
	TxBytes   uint64
	DropsFull uint64 // tail drops from private-queue overflow (no pool)
	DropsPool uint64 // dynamic-threshold rejections by the node's shared pool
	DropsLoss uint64 // injected random losses
	DropsDown uint64 // frames sent while the link was administratively down
}

// txRec is one accepted frame's serialization record: the time its bytes
// finish leaving the queue, and how many there were.
type txRec struct {
	done Time
	size int
}

// halfLink is one direction of a link: a serializing transmitter feeding a
// propagation delay into the peer node's port.
type halfLink struct {
	cfg      LinkConfig
	srcNode  NodeID
	dstNode  NodeID
	dstPort  int
	dst      Node // resolved destination, cached so send never hits the node map
	busyTill Time // when the transmitter finishes its current backlog
	queued   int  // bytes accepted but not yet fully serialized
	stats    LinkStats
	// rng is the half-link's loss stream, seeded from rngSeed on the first
	// loss draw: most links are loss-free and never need its 5 KB source.
	rng     *rand.Rand
	rngSeed int64

	// down marks the direction administratively failed (fault injection):
	// frames sent while down are counted and discarded. Frames already
	// accepted keep their scheduled deliveries — they left the transmitter
	// before the failure. Toggled only through SetLinkState.
	down bool

	// pool, when non-nil, is the shared buffer memory of the source node:
	// admission charges it under the dynamic threshold instead of the
	// private cfg.QueueBytes FIFO (see bufferpool.go). poolSlot is this
	// port's slot in the pool's per-(port, class) occupancy accounting,
	// assigned when the port joins the pool.
	pool     *BufferPool
	poolSlot int32

	// inflight records accepted frames not yet drained from the queue
	// accounting, as a circular ring ordered by completion time (one port
	// serializes FIFO, so push order is completion order). Occupancy is only
	// ever consulted at admission time, so instead of scheduling one engine
	// event per frame to decrement queued (half of all send-side events
	// before this existed), drains are applied lazily at the next admission:
	// pop every record whose serialization finished at or before now. The
	// ring never shifts its contents, keeping big-incast burst admission
	// O(1) amortized (BenchmarkBurstAdmission guards this).
	inflight ring
}

// ring is a growable circular queue of txRecs: head is the oldest live
// record, n the live count. Pop is O(1) with no memmove; push is O(1)
// amortized (doubling on overflow).
type ring struct {
	buf  []txRec
	head int
	n    int
}

func (r *ring) push(rec txRec) {
	if r.n == len(r.buf) {
		grown := make([]txRec, 2*len(r.buf)+4)
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = rec
	r.n++
}

func (r *ring) front() *txRec { return &r.buf[r.head] }

func (r *ring) popFront() {
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	if r.n == 0 {
		r.head = 0
	}
}

func (r *ring) clear() { r.head, r.n = 0, 0 }

// drainTo applies every queue drain due at or before now.
func (hl *halfLink) drainTo(now Time) {
	for hl.inflight.n > 0 && hl.inflight.front().done <= now {
		hl.queued -= hl.inflight.front().size
		hl.inflight.popFront()
	}
}

// lossDraw returns the next uniform draw of the half-link's loss stream,
// seeding the stream on first use.
func (hl *halfLink) lossDraw() float64 {
	if hl.rng == nil {
		hl.rng = rand.New(rand.NewSource(hl.rngSeed))
	}
	return hl.rng.Float64()
}

// Port names one endpoint of a link from a node's point of view.
type port struct {
	out *halfLink
}

// linkPair indexes every half-link between one endpoint pair (several,
// when parallel links exist) for O(1) administrative state queries, and
// carries the pair's admin state: down, and the flap generation (up→down
// transitions) a liveness monitor compares across polls to catch flaps
// shorter than its polling period.
type linkPair struct {
	halves []*halfLink
	down   bool
	flaps  uint64
}

// pairKey normalizes a link's endpoints into the Network.links key order.
func pairKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// Network glues nodes together with links on top of an Engine.
type Network struct {
	// Eng is the network's event engine.
	Eng   *Engine
	nodes map[NodeID]Node
	ports map[NodeID][]*port
	half  []*halfLink
	links map[[2]NodeID]*linkPair
	pools map[NodeID]*BufferPool
	seed  uint64

	// tracer, when non-nil, observes every transmit-side admission attempt
	// (see tracer.go).
	tracer FrameTracer
}

// New creates an empty network over a fresh engine. seed drives all loss
// randomness; the same seed reproduces the same drops.
func New(seed uint64) *Network {
	return &Network{
		Eng:   NewEngine(),
		nodes: make(map[NodeID]Node),
		ports: make(map[NodeID][]*port),
		links: make(map[[2]NodeID]*linkPair),
		pools: make(map[NodeID]*BufferPool),
		seed:  seed,
	}
}

// AddNode attaches n under the given ID. Duplicate IDs are a configuration
// error and panic.
func (nw *Network) AddNode(id NodeID, n Node) {
	if _, dup := nw.nodes[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate node id %d", id))
	}
	nw.nodes[id] = n
	n.Attach(nw, id)
}

// Node returns the node registered under id, or nil.
func (nw *Network) Node(id NodeID) Node { return nw.nodes[id] }

// NumPorts returns how many ports node id currently has.
func (nw *Network) NumPorts(id NodeID) int { return len(nw.ports[id]) }

// Connect joins a and b with a bidirectional link and returns the port
// numbers allocated on each side. Both nodes must already be added.
func (nw *Network) Connect(a, b NodeID, cfg LinkConfig) (aPort, bPort int) {
	if _, ok := nw.nodes[a]; !ok {
		panic(fmt.Sprintf("netsim: connect: unknown node %d", a))
	}
	if _, ok := nw.nodes[b]; !ok {
		panic(fmt.Sprintf("netsim: connect: unknown node %d", b))
	}
	cfg = cfg.withDefaults()
	aPort = len(nw.ports[a])
	bPort = len(nw.ports[b])
	// Derive independent, deterministic loss-stream seeds per half-link; the
	// streams themselves are built on first draw (see lossDraw).
	seed := func(salt uint64) int64 { return int64(hashing.Mix64(nw.seed ^ salt)) }
	ab := &halfLink{cfg: cfg, srcNode: a, dstNode: b, dstPort: bPort,
		dst:     nw.nodes[b],
		rngSeed: seed(uint64(a)<<32 | uint64(b)<<8 | uint64(aPort))}
	ba := &halfLink{cfg: cfg, srcNode: b, dstNode: a, dstPort: aPort,
		dst:     nw.nodes[a],
		rngSeed: seed(uint64(b)<<32 | uint64(a)<<8 | uint64(bPort) | 1<<63)}
	// Ports born after SetNodePool join the node's pool, each carving its
	// own reserve slot; an over-committed carve is a configuration error.
	nw.joinPool(a, ab)
	nw.joinPool(b, ba)
	nw.ports[a] = append(nw.ports[a], &port{out: ab})
	nw.ports[b] = append(nw.ports[b], &port{out: ba})
	nw.half = append(nw.half, ab, ba)
	key := pairKey(a, b)
	lp := nw.links[key]
	if lp == nil {
		lp = &linkPair{}
		nw.links[key] = lp
	}
	lp.halves = append(lp.halves, ab, ba)
	return aPort, bPort
}

// joinPool attaches hl to node id's shared pool, when one exists, carving
// the port's reserve slot. Called from Connect, which panics on its other
// configuration errors too.
func (nw *Network) joinPool(id NodeID, hl *halfLink) {
	bp := nw.pools[id]
	if bp == nil {
		return
	}
	slot := bp.nSlots
	if err := bp.carvePorts(1); err != nil {
		panic(fmt.Sprintf("netsim: connect: node %d: %v", id, err))
	}
	hl.pool, hl.poolSlot = bp, int32(slot)
}

// Send transmits frame out of (from, portNum) under traffic class 0. The
// network takes ownership of the frame slice. Frames that overflow the port
// queue or hit injected loss are counted and dropped.
func (nw *Network) Send(from NodeID, portNum int, frame []byte) {
	nw.send(nw.outHalf(from, portNum), 0, frame)
}

// SendClass is Send with an explicit traffic class: on pooled nodes the
// frame is admitted against that class's hard-carved reserve and dynamic
// threshold (see PoolConfig.Classes); classes outside the pool's configured
// range fold into class 0, and poolless nodes ignore the class entirely.
func (nw *Network) SendClass(from NodeID, portNum, class int, frame []byte) {
	nw.send(nw.outHalf(from, portNum), class, frame)
}

// SendBurst transmits several frames out of (from, portNum) back-to-back,
// as if Send were called once per frame, amortizing the port lookup and
// queue-drain bookkeeping over the burst. Batched senders (core.Sender and
// friends) funnel here.
func (nw *Network) SendBurst(from NodeID, portNum int, frames [][]byte) {
	hl := nw.outHalf(from, portNum)
	for _, frame := range frames {
		nw.send(hl, 0, frame)
	}
}

func (nw *Network) outHalf(from NodeID, portNum int) *halfLink {
	ports := nw.ports[from]
	if portNum < 0 || portNum >= len(ports) {
		panic(fmt.Sprintf("netsim: node %d has no port %d", from, portNum))
	}
	return ports[portNum].out
}

func (nw *Network) send(hl *halfLink, class int, frame []byte) {
	eng := nw.Eng
	size := len(frame)
	if hl.down {
		hl.stats.DropsDown++
		if nw.tracer != nil {
			nw.traceFrame(hl, class, size, eng.Now(), FrameDropDown, frame)
		}
		return
	}
	now := eng.Now()
	hl.drainTo(now)

	if hl.pool != nil {
		// Shared-memory admission: the (port, class) queue's occupancy is
		// judged against its hard floor and the dynamic threshold over the
		// node-wide pool.
		class = hl.pool.foldClass(class)
		hl.pool.drainTo(now)
		if !hl.pool.admit(int(hl.poolSlot), class, size) {
			hl.pool.rejected(class)
			hl.stats.DropsPool++
			if nw.tracer != nil {
				nw.traceFrame(hl, class, size, now, FrameDropPool, frame)
			}
			return
		}
	} else if hl.queued+size > hl.cfg.QueueBytes {
		hl.stats.DropsFull++
		if nw.tracer != nil {
			nw.traceFrame(hl, class, size, now, FrameDropFull, frame)
		}
		return
	}
	if hl.cfg.LossProb > 0 && hl.lossDraw() < hl.cfg.LossProb {
		hl.stats.DropsLoss++
		if nw.tracer != nil {
			nw.traceFrame(hl, class, size, now, FrameDropLoss, frame)
		}
		return
	}

	start := hl.busyTill
	if start < now {
		start = now
	}
	txTime := Time(int64(size) * 8 * int64(time.Second) / hl.cfg.BandwidthBps)
	if txTime < 1 {
		txTime = 1
	}
	done := start + txTime
	hl.busyTill = done
	hl.queued += size
	hl.inflight.push(txRec{done: done, size: size})
	if hl.pool != nil {
		hl.pool.charge(int(hl.poolSlot), class, done, size)
	}
	hl.stats.TxFrames++
	hl.stats.TxBytes += uint64(size)
	if nw.tracer != nil {
		// Accepted attempts are traced after the charge, so the reported
		// occupancy includes the frame itself — its position at the tail of
		// the queue it just joined. Drop records report the occupancy the
		// rejection was judged against.
		nw.traceFrame(hl, class, size, now, FrameAccepted, frame)
	}

	// The delivery record goes into the engine's frame arena — no closure,
	// no per-frame heap allocation.
	eng.scheduleFrame(done+Duration(hl.cfg.Propagation), hl.dst, int32(hl.dstPort), frame)
}

// Now returns the network's virtual time. After Run drains the queue this
// is the timestamp of the last executed event.
func (nw *Network) Now() Time { return nw.Eng.Now() }

// Processed returns the number of events executed so far.
func (nw *Network) Processed() uint64 { return nw.Eng.Processed }

// Pending returns the number of queued events.
func (nw *Network) Pending() int { return nw.Eng.Pending() }

// SetLinkState marks every link between a and b administratively up or down
// in both directions. Down links count and discard subsequent sends;
// deliveries already scheduled still arrive (those frames were in flight).
// Fault injection calls it between RunUntil windows.
func (nw *Network) SetLinkState(a, b NodeID, up bool) error {
	lp := nw.links[pairKey(a, b)]
	if lp == nil {
		return fmt.Errorf("netsim: no link between %d and %d", a, b)
	}
	if !up && !lp.down {
		lp.flaps++
	}
	lp.down = !up
	for _, hl := range lp.halves {
		hl.down = !up
	}
	return nil
}

// LinkFlaps returns how many up→down transitions the link between a and b
// has taken — the flap generation (one per administrative down, both
// directions fail together). A monitor that sees it advance between two
// polls knows the link failed in the interim even if both polls found it
// up, exactly as Program.Crashes exposes switch reboots faster than the
// polling period.
func (nw *Network) LinkFlaps(a, b NodeID) uint64 {
	lp := nw.links[pairKey(a, b)]
	if lp == nil {
		return 0
	}
	return lp.flaps
}

// LinkUp reports whether a link between a and b exists and is
// administratively up.
func (nw *Network) LinkUp(a, b NodeID) bool {
	lp := nw.links[pairKey(a, b)]
	return lp != nil && !lp.down
}

// PortStats returns a copy of the transmit-direction statistics of
// (node, port).
func (nw *Network) PortStats(id NodeID, portNum int) LinkStats {
	ports := nw.ports[id]
	if portNum < 0 || portNum >= len(ports) {
		return LinkStats{}
	}
	return ports[portNum].out.stats
}

// TotalStats sums transmit statistics over every half-link in the fabric.
func (nw *Network) TotalStats() LinkStats {
	var t LinkStats
	for _, hl := range nw.half {
		t.TxFrames += hl.stats.TxFrames
		t.TxBytes += hl.stats.TxBytes
		t.DropsFull += hl.stats.DropsFull
		t.DropsPool += hl.stats.DropsPool
		t.DropsLoss += hl.stats.DropsLoss
		t.DropsDown += hl.stats.DropsDown
	}
	return t
}

// Run drains the event loop. maxEvents bounds the executed event count;
// 0 means unlimited.
func (nw *Network) Run(maxEvents uint64) error { return nw.Eng.Run(maxEvents) }

// RunUntil executes every event with timestamp <= deadline, then advances
// the clock to the deadline. Later events stay queued. This is the
// control-plane synchronization point of the fault subsystem: between
// RunUntil calls the caller may inject faults, poll liveness and re-plan
// trees, and schedule new work at >= deadline, exactly like setup code.
// It never fails; the error result keeps the signature callers use.
func (nw *Network) RunUntil(deadline Time) error {
	nw.Eng.RunUntil(deadline)
	return nil
}
