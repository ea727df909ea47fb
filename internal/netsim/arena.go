package netsim

import "unsafe"

// Slab arenas for the event hot path.
//
// A frame delivery is an int32 slot into per-engine struct-of-arrays
// storage rather than a heap-allocated closure: the fields the heap
// compares (timestamp, insertion sequence) stay inline in the 24-byte
// event struct, while the delivery record (node, port, payload reference)
// lives in the engine's arena, recycled through a LIFO free list. Callback
// events keep their func in a second arena the same way. Steady state
// allocates nothing: BenchmarkEventLoop, BenchmarkTimerReset,
// BenchmarkFrameDelivery, BenchmarkBurstAdmission and BenchmarkMegaIncast
// all report 0 allocs/op.
//
// Ownership rule (enforced by the arenaescape analyzer): an arena slot is
// owned by exactly one engine, from alloc to take. Payloads stay
// by-reference — the []byte is never copied — and ownership of the payload
// passes with the slot: the sender gives it up at Send, the arena holds it
// while the frame is in flight, and take hands it to the destination
// node's HandleFrame, after which the arena retains nothing. Only the
// engine's own push/take helpers may touch arena internals.
//
// A Timer record (timer.go) is not arena storage: its owner holds it for
// life and re-arms it in place. Only its queued pops take fn slots, each
// holding the one func the timer bound at NewTimer. A timer whose
// deadline only moves later occupies one slot at a time, where one
// Schedule per arm held a slot per pending arm.

// frameArena is the struct-of-arrays store for in-flight frame
// deliveries: parallel slices indexed by slot. Slots are recycled LIFO so
// a steady-state workload touches a small, cache-resident prefix.
type frameArena struct {
	node []Node
	port []int32
	buf  [][]byte
	free []int32
	live int
	peak int
}

// alloc claims a slot and stores one delivery record in it.
func (a *frameArena) alloc(n Node, port int32, frame []byte) int32 {
	var slot int32
	if k := len(a.free); k > 0 {
		slot = a.free[k-1]
		a.free = a.free[:k-1]
		a.node[slot] = n
		a.port[slot] = port
		a.buf[slot] = frame
	} else {
		slot = int32(len(a.node))
		a.node = append(a.node, n)
		a.port = append(a.port, port)
		a.buf = append(a.buf, frame)
	}
	a.live++
	if a.live > a.peak {
		a.peak = a.live
	}
	return slot
}

// take moves the slot's record out of the arena and recycles the slot.
// Ownership of the payload passes to the caller; the arena keeps no
// reference.
func (a *frameArena) take(slot int32) (Node, int32, []byte) {
	n, port, frame := a.node[slot], a.port[slot], a.buf[slot]
	a.node[slot] = nil
	a.buf[slot] = nil
	a.free = append(a.free, slot)
	a.live--
	return n, port, frame
}

// bytes is the arena's resident metadata footprint (backing arrays and
// free list; payload bytes are owned by their producers and excluded).
func (a *frameArena) bytes() int64 {
	return int64(cap(a.node))*int64(unsafe.Sizeof(Node(nil))) +
		int64(cap(a.port))*int64(unsafe.Sizeof(int32(0))) +
		int64(cap(a.buf))*int64(unsafe.Sizeof([]byte(nil))) +
		int64(cap(a.free))*int64(unsafe.Sizeof(int32(0)))
}

// fnArena is the slot store for callback events (timers, control-plane
// work).
type fnArena struct {
	fn   []func()
	free []int32
	live int
	peak int
}

func (a *fnArena) alloc(fn func()) int32 {
	var slot int32
	if k := len(a.free); k > 0 {
		slot = a.free[k-1]
		a.free = a.free[:k-1]
		a.fn[slot] = fn
	} else {
		slot = int32(len(a.fn))
		a.fn = append(a.fn, fn)
	}
	a.live++
	if a.live > a.peak {
		a.peak = a.live
	}
	return slot
}

// take moves the slot's callback out of the arena and recycles the slot.
func (a *fnArena) take(slot int32) func() {
	fn := a.fn[slot]
	a.fn[slot] = nil
	a.free = append(a.free, slot)
	a.live--
	return fn
}

func (a *fnArena) bytes() int64 {
	return int64(cap(a.fn))*int64(unsafe.Sizeof((func())(nil))) +
		int64(cap(a.free))*int64(unsafe.Sizeof(int32(0)))
}

// ArenaStats is a network's arena occupancy — the "peak arena bytes"
// figure of the megaincast experiment.
type ArenaStats struct {
	FrameCap  int   // frame slots ever allocated (capacity; never shrinks)
	FrameLive int   // frame slots currently holding an in-flight delivery
	FramePeak int   // high-water mark of live frame slots
	TimerCap  int   // callback slots ever allocated
	TimerPeak int   // high-water mark of live callback slots
	Bytes     int64 // resident arena metadata bytes (payloads excluded)
}

// ArenaStats returns the arena statistics of the network's engine.
func (nw *Network) ArenaStats() ArenaStats {
	e := nw.Eng
	return ArenaStats{
		FrameCap:  len(e.frames.node),
		FrameLive: e.frames.live,
		FramePeak: e.frames.peak,
		TimerCap:  len(e.fns.fn),
		TimerPeak: e.fns.peak,
		Bytes:     e.frames.bytes() + e.fns.bytes(),
	}
}
