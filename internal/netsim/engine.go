// Package netsim is a deterministic discrete-event, packet-level network
// simulator: the substrate standing in for the paper's single-server bmv2
// testbed and, by extension, for a hardware deployment's data-center fabric.
//
// Design goals, in order: determinism (same seed, same result — experiments
// are asserted in tests), measurement fidelity for the quantities the paper
// reports (packets and bytes arriving at tree roots, queueing behaviour),
// and speed (an event loop with no goroutine-per-packet and no per-frame
// heap allocation — see arena.go).
//
// Frames are raw []byte throughout; nodes parse them with internal/wire and
// internal/dataplane, never via Go-struct side channels.
package netsim

import (
	"fmt"
	"time"
)

// Time is virtual simulation time in nanoseconds since simulation start.
type Time int64

// Duration converts a time.Duration into simulator ticks.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// String renders the time as a time.Duration for diagnostics.
func (t Time) String() string { return time.Duration(t).String() }

// event is one scheduled callback or frame delivery, packed to 24 bytes
// with no pointers so heap sift copies stay cheap and the GC never scans
// the queue. Events are totally ordered by (at, seq): seq is the engine's
// insertion counter, stamped when the event is pushed, so events due at
// the same tick run in the order they were scheduled. The same inputs
// schedule in the same order, so they replay the same run; the figure
// golden (internal/experiments) pins the results that order yields.
type event struct {
	at  Time
	seq uint64
	// slot locates the event's payload in its engine's arenas: slot >= 0
	// is a frameArena slot (a frame delivery), slot < 0 is ^slot into the
	// fnArena (a callback). See arena.go.
	slot int32
}

// eventHeap is a monomorphic binary min-heap ordered by (at, seq). It
// replaces container/heap, whose interface{}-typed Push/Pop box every
// event (one allocation per scheduled event) and dispatch comparisons
// through an interface table — measurable overhead on the simulator's
// hottest path. Events live inline in the backing slice; push and pop
// allocate only when the slice itself grows.
type eventHeap []event

// less orders events by timestamp, then by insertion order.
func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
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

// Engine is the discrete-event core: a clock, an ordered event queue, and
// the arenas holding the queued events' payloads. It is not safe for
// concurrent use: a simulation runs entirely on the caller's goroutine.
type Engine struct {
	now    Time
	events eventHeap
	// seq counts scheduled events; each push stamps the next value.
	seq uint64
	// Processed counts executed events, a cheap progress/livelock indicator.
	Processed uint64

	// frames/fns hold the payloads of queued events (see arena.go).
	frames frameArena
	fns    fnArena
}

// NewEngine returns an engine at time zero with an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn at time at, after every event already scheduled for
// that tick. Scheduling in the past is a programming error and panics:
// allowing it would silently reorder causality.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("netsim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, slot: ^e.fns.alloc(fn)})
}

// scheduleFrame enqueues the delivery of frame to port of node n, ordered
// with callbacks by the same insertion counter. The delivery record lives
// in this engine's frame arena; this is the only way a frame enters an
// arena.
func (e *Engine) scheduleFrame(at Time, n Node, port int32, frame []byte) {
	if at < e.now {
		panic(fmt.Sprintf("netsim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, slot: e.frames.alloc(n, port, frame)})
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
	if ev.slot >= 0 {
		n, port, frame := e.frames.take(ev.slot)
		if n != nil {
			n.HandleFrame(int(port), frame)
		}
	} else {
		e.fns.take(^ev.slot)()
	}
	return true
}

// Run drains the event queue. maxEvents bounds runaway simulations
// (retransmission livelock under 100% loss, for example); it returns an
// error when events remain beyond the bound and nil when the queue
// empties — a simulation of exactly maxEvents events succeeds.
func (e *Engine) Run(maxEvents uint64) error {
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
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }
