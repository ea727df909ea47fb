// Package netsim is a deterministic discrete-event, packet-level network
// simulator: the substrate standing in for the paper's single-server bmv2
// testbed and, by extension, for a hardware deployment's data-center fabric.
//
// Design goals, in order: determinism (same seed, same result — experiments
// are asserted in tests), measurement fidelity for the quantities the paper
// reports (packets and bytes arriving at tree roots, queueing behaviour),
// and speed (an event loop with no goroutine-per-packet and no per-frame
// heap allocation — see arena.go; optionally one event loop per fabric
// partition, see Network.Partition).
//
// Frames are raw []byte throughout; nodes parse them with internal/wire and
// internal/dataplane, never via Go-struct side channels.
package netsim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Time is virtual simulation time in nanoseconds since simulation start.
type Time int64

// Duration converts a time.Duration into simulator ticks.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// String renders the time as a time.Duration for diagnostics.
func (t Time) String() string { return time.Duration(t).String() }

// event is one scheduled callback, packed to 32 bytes with no pointers so
// heap sift copies stay cheap and the GC never scans the queue. Events are
// totally ordered by (at, src, seq): src names the deterministic origin
// that scheduled the event (a node, a half-link, or 0 for setup code) and
// seq is that origin's own schedule counter. Because both components are
// derived from the origin's causal history — never from the global
// interleaving of the event loop — the order is identical whether the
// fabric runs on one event heap or on one heap per partition domain, and
// survives any dynamic re-cut (migration moves events between heaps but
// never rewrites their keys). That invariance is what makes partitioned
// runs byte-identical to sequential ones (asserted by the conformance
// tests in this package and in internal/experiments).
type event struct {
	at  Time
	src uint64
	seq uint64
	// slot locates the event's payload in its engine's arenas: slot >= 0
	// is a frameArena slot (a frame delivery), slot < 0 is ^slot into the
	// fnArena (a callback). See arena.go.
	slot int32
	// exec is the origin context the callback runs under: events the
	// callback schedules are keyed (exec, exec's counter). For timers this
	// equals src; for frame deliveries it is the destination node. Always
	// a 24-bit node ID (or 0 for setup), so it fits uint32.
	exec uint32
}

// eventHeap is a monomorphic binary min-heap ordered by (at, src, seq). It
// replaces container/heap, whose interface{}-typed Push/Pop box every
// event (one allocation per scheduled event) and dispatch comparisons
// through an interface table — measurable overhead on the simulator's
// hottest path. Events live inline in the backing slice; push and pop
// allocate only when the slice itself grows.
type eventHeap []event

// less orders events by timestamp, then by the partition-invariant
// (origin, sequence) key, keeping same-tick events in a deterministic order
// that does not depend on how the fabric is partitioned.
func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].src != h[j].src {
		return h[i].src < h[j].src
	}
	return h[i].seq < h[j].seq
}

// push inserts e and restores the heap invariant by sifting up.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the minimum event. Events hold no pointers (the
// arenas do), so the vacated tail slot needs no zeroing.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q

	// Sift down from the root.
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && q.less(right, left) {
			min = right
		}
		if !q.less(min, i) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// init re-establishes the heap invariant over arbitrary contents (used
// after a re-cut filters migrated events out of the backing slice).
func (h eventHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		for {
			left := 2*i + 1
			if left >= n {
				break
			}
			min := left
			if right := left + 1; right < n && h.less(right, left) {
				min = right
			}
			if !h.less(min, i) {
				break
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
}

// budget is the event bound shared by every domain of a partitioned run:
// the total executed across all domains may not exceed max. Domains draw
// allowance in chunks (budgetChunk events at a time) and spend it with
// plain local arithmetic, so the hot path touches the shared atomic once
// per chunk instead of once per event; the unspent remainder is refunded
// at the end of the window, which restores used == events actually
// executed before the coordinator inspects the counter at the barrier —
// the bound stays exact at the stop boundary.
type budget struct {
	used atomic.Uint64
	max  uint64
}

// budgetChunk is the per-domain allowance drawn from the shared budget in
// one reserve. Large enough to amortize the atomic across a window, small
// enough that a near-exhausted budget still spreads over all domains.
const budgetChunk = 256

// reserve draws up to want events of allowance, clamped to what remains.
// Returns 0 when the budget is spent.
func (b *budget) reserve(want uint64) uint64 {
	for {
		u := b.used.Load()
		if u >= b.max {
			return 0
		}
		n := b.max - u
		if n > want {
			n = want
		}
		if b.used.CompareAndSwap(u, u+n) {
			return n
		}
	}
}

// refund returns unspent allowance, so used counts executed events again.
func (b *budget) refund(n uint64) {
	if n != 0 {
		b.used.Add(^(n - 1))
	}
}

// Engine is the discrete-event core: a clock, an ordered event queue, and
// the arenas holding the queued events' payloads. It is not safe for
// concurrent use; a simulation runs either entirely on the caller's
// goroutine or, when the Network is partitioned, with one Engine per
// domain, each confined to its domain's goroutine between barriers.
type Engine struct {
	now    Time
	events eventHeap
	// Processed counts executed events, a cheap progress/livelock indicator.
	Processed uint64

	// frames/fns hold the payloads of queued events (see arena.go). One
	// arena pair per engine: a domain's in-flight state lives with its
	// heap, so re-cut migration moves slot contents between arenas.
	frames frameArena
	fns    fnArena

	// origin is the ordering-origin context of the currently executing
	// event (0 outside event execution, i.e. during setup). counter caches
	// the per-origin schedule counter so the hot path pays one map lookup
	// per origin *switch*, not per scheduled event.
	origin   uint64
	counter  *uint64
	counters map[uint64]*uint64
}

// NewEngine returns an engine at time zero with an empty queue.
func NewEngine() *Engine {
	e := &Engine{counters: make(map[uint64]*uint64)}
	e.counter = e.counterFor(0)
	return e
}

func (e *Engine) counterFor(origin uint64) *uint64 {
	c := e.counters[origin]
	if c == nil {
		c = new(uint64)
		e.counters[origin] = c
	}
	return c
}

// adoptSetupCounter replaces the engine's origin-0 (setup) schedule
// counter with a shared one. Partition points every domain engine at one
// network-wide setup counter so setup-scheduled events carry globally
// unique, program-ordered keys — without this, a dynamic re-cut could
// merge two heaps whose setup events carry colliding (0, seq) keys.
func (e *Engine) adoptSetupCounter(c *uint64) {
	e.counters[0] = c
	if e.origin == 0 {
		e.counter = c
	}
}

// setOrigin switches the scheduling context to origin (the executing
// event's exec field).
func (e *Engine) setOrigin(origin uint64) {
	if origin != e.origin {
		e.origin = origin
		e.counter = e.counterFor(origin)
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn at time at. Scheduling in the past is a programming
// error and panics: allowing it would silently reorder causality. The event
// is keyed under the current origin context, so callbacks scheduled by one
// node (or by setup code) keep their relative order under any partitioning.
func (e *Engine) Schedule(at Time, fn func()) {
	e.scheduleOwned(at, NodeID(e.origin), fn)
}

// scheduleOwned is Schedule with an explicit re-cut owner: the node whose
// domain the pending callback must follow if the fabric is re-cut before
// it fires. Network.NodeAfter passes the target node, so even timers
// scheduled by setup code (origin 0) migrate with their node.
//
// Setup-context schedules with a real owner are keyed by the owner, not
// by origin 0: the owner's counter lives in (and migrates with) the
// node's domain, so concurrent domains never touch the shared setup
// counter mid-run — under origin-0 keys, two domains executing
// setup-scheduled callbacks would race on that counter and stamp
// interleaving-dependent sequence numbers. The owner key is
// partition-invariant, so sequential and partitioned runs still agree
// byte-for-byte; the callback also *executes* as the owner (exec), so
// everything it schedules in turn stays owner-keyed.
func (e *Engine) scheduleOwned(at Time, owner NodeID, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("netsim: schedule at %v before now %v", at, e.now))
	}
	src := e.origin
	ctr := e.counter
	if src == 0 && owner != 0 {
		src = uint64(owner)
		ctr = e.counterFor(src)
	}
	*ctr++
	slot := e.fns.alloc(owner, fn)
	e.events.push(event{at: at, src: src, seq: *ctr, slot: ^slot, exec: uint32(src)})
}

// scheduleFrame enqueues a frame delivery under an explicit (src, seq)
// ordering key derived from the transmitting half-link — identical no
// matter which domain heap the event lands in. The delivery record lives
// in this engine's frame arena; this is the only way a frame enters an
// arena (the cross-domain barrier hands mailed frames back through here).
func (e *Engine) scheduleFrame(at Time, src, seq uint64, dst NodeID, n Node, port int32, frame []byte) {
	if at < e.now {
		panic(fmt.Sprintf("netsim: schedule at %v before now %v", at, e.now))
	}
	slot := e.frames.alloc(n, port, frame)
	e.events.push(event{at: at, src: src, seq: seq, slot: slot, exec: uint32(dst)})
}

// After runs fn d ticks from now.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// Step executes the single earliest event and reports whether one existed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	e.Processed++
	e.setOrigin(uint64(ev.exec))
	if ev.slot >= 0 {
		n, port, frame := e.frames.take(ev.slot)
		if n != nil {
			n.HandleFrame(int(port), frame)
		}
	} else {
		fn, _ := e.fns.take(^ev.slot)
		fn()
	}
	return true
}

// eventOwner resolves the node a queued event migrates with on re-cut:
// the destination for frame deliveries, the recorded owner for callbacks.
func (e *Engine) eventOwner(ev event) NodeID {
	if ev.slot >= 0 {
		return NodeID(ev.exec)
	}
	return e.fns.owner[^ev.slot]
}

// extractMoved removes every queued event whose owner the re-cut assigns
// to a different domain, handing each to emit together with its arena
// payload, and re-heapifies the remainder. Cold path: runs only inside
// Network.Repartition at a quiescent barrier.
func (e *Engine) extractMoved(moves func(owner NodeID) bool, emit func(ev event, owner NodeID, n Node, port int32, frame []byte, fn func())) {
	kept := e.events[:0]
	for _, ev := range e.events {
		owner := e.eventOwner(ev)
		if !moves(owner) {
			kept = append(kept, ev)
			continue
		}
		if ev.slot >= 0 {
			n, port, frame := e.frames.take(ev.slot)
			emit(ev, owner, n, port, frame, nil)
		} else {
			fn, _ := e.fns.take(^ev.slot)
			emit(ev, owner, nil, 0, nil, fn)
		}
	}
	e.events = kept
	e.events.init()
}

// adopt re-homes a migrated event: the payload is re-slotted into this
// engine's arenas (keeping its original ordering key) and pushed.
func (e *Engine) adopt(ev event, owner NodeID, n Node, port int32, frame []byte, fn func()) {
	if ev.slot >= 0 {
		ev.slot = e.frames.alloc(n, port, frame)
	} else {
		ev.slot = ^e.fns.alloc(owner, fn)
	}
	e.events.push(ev)
}

// Run drains the event queue. maxEvents bounds runaway simulations
// (retransmission livelock under 100% loss, for example); it returns an
// error when events remain beyond the bound and nil when the queue
// empties — a simulation of exactly maxEvents events succeeds, matching
// the partitioned engine's total-budget semantics.
func (e *Engine) Run(maxEvents uint64) error {
	defer e.setOrigin(0)
	for i := uint64(0); ; i++ {
		if maxEvents > 0 && i >= maxEvents {
			if len(e.events) == 0 {
				return nil
			}
			return fmt.Errorf("netsim: event budget %d exhausted at t=%v (%d pending)",
				maxEvents, e.now, len(e.events))
		}
		if !e.Step() {
			return nil
		}
	}
}

// RunUntil executes events with timestamps <= deadline, then stops and
// advances the clock to the deadline. Remaining events stay queued.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	e.setOrigin(0)
}

// runWindow executes every queued event strictly earlier than horizon,
// spending chunked allowance from the shared budget (nil = unlimited). It
// reports whether the budget ran out mid-window; the caller re-checks the
// counter at the barrier, after every domain's refund, because a reserve
// that found the budget transiently drained may have been racing chunks
// other domains were about to return. This is one domain's share of one
// conservative horizon window; the caller provides the barrier.
func (e *Engine) runWindow(horizon Time, bud *budget) (exhausted bool) {
	if bud == nil {
		for len(e.events) > 0 && e.events[0].at < horizon {
			e.Step()
		}
		e.setOrigin(0)
		return false
	}
	var allow uint64
	for len(e.events) > 0 && e.events[0].at < horizon {
		if allow == 0 {
			if allow = bud.reserve(budgetChunk); allow == 0 {
				e.setOrigin(0)
				return true
			}
		}
		allow--
		e.Step()
	}
	bud.refund(allow)
	e.setOrigin(0)
	return false
}

// advanceTo moves the clock forward to t without executing anything. The
// partitioned RunUntil uses it at the final barrier so every domain clock
// agrees with the sequential engine's post-RunUntil time; callers must have
// drained all events <= t first.
func (e *Engine) advanceTo(t Time) {
	if e.now < t {
		e.now = t
	}
}

// next returns the timestamp of the earliest queued event, or ok=false when
// the queue is empty.
func (e *Engine) next() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }
