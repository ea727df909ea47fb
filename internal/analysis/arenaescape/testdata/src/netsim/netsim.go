// Package netsim is a hermetic stand-in for the real event engine: the
// same type names (frameArena, fnArena, event) and helper names, so
// the type-name-driven ownership rules bind exactly as they do in the
// real package.
package netsim

type Node interface{ HandleFrame(port int, frame []byte) }

type NodeID uint64

type Time int64

// frameArena and fnArena mirror the real slab arenas.
type frameArena struct {
	node []Node
	port []int32
	buf  [][]byte
	free []int32
	live int
	peak int
}

type fnArena struct {
	fn   []func()
	live int
}

type event struct {
	at   Time
	seq  uint64
	slot int32
}

type Engine struct {
	frames frameArena
	fns    fnArena
	events []event
	seq    uint64
	now    Time
}

// Arena methods may touch their own internals freely.
func (a *frameArena) alloc(n Node, port int32, frame []byte) int32 {
	a.node = append(a.node, n)
	a.port = append(a.port, port)
	a.buf = append(a.buf, frame)
	a.live++
	if a.live > a.peak {
		a.peak = a.live
	}
	return int32(len(a.node) - 1)
}

func (a *frameArena) take(slot int32) (Node, int32, []byte) {
	n, port, frame := a.node[slot], a.port[slot], a.buf[slot]
	a.node[slot] = nil
	a.buf[slot] = nil
	a.free = append(a.free, slot)
	a.live--
	return n, port, frame
}

// The scheduling helpers are the slot's only birthplaces.
func (e *Engine) scheduleFrame(at Time, n Node, port int32, frame []byte) {
	e.seq++
	e.events = append(e.events, event{at: at, seq: e.seq, slot: e.frames.alloc(n, port, frame)})
}

func (e *Engine) Step() {
	ev := e.events[0]
	e.events = e.events[1:]
	if ev.slot >= 0 {
		n, port, frame := e.frames.take(ev.slot)
		if n != nil {
			n.HandleFrame(int(port), frame)
		}
	}
}

// ArenaStats aggregates occupancy — reads are allowed here, including
// through its closure.
func (e *Engine) ArenaStats() int {
	total := 0
	add := func() {
		total += e.frames.live + e.fns.live
	}
	add()
	return total
}

// badPeek retains an arena-owned payload past delivery: the slot recycles
// and the "kept" frame becomes a different packet.
func (e *Engine) badPeek(slot int32) []byte {
	return e.frames.buf[slot] // want `frameArena internals accessed outside the engine's helpers`
}

// badTimerSteal reaches into the callback arena.
func (e *Engine) badTimerSteal(slot int32) func() {
	return e.fns.fn[slot] // want `fnArena internals accessed outside the engine's helpers`
}

// badSlotStash stores a live slot for later use — dangling once the event
// fires.
func (e *Engine) badSlotStash() int32 {
	return e.events[0].slot // want `event arena slot used outside the scheduling helpers`
}

// badEventForge builds a slot-carrying event outside the helpers.
func (e *Engine) badEventForge(at Time, slot int32) {
	e.events = append(e.events, event{at: at, slot: slot}) // want `event with an arena slot constructed outside the scheduling helpers`
}

// goodEventNoSlot: slotless event literals (heap sentinels, tests) are
// fine anywhere.
func (e *Engine) goodEventNoSlot(at Time) {
	e.events = append(e.events, event{at: at, seq: e.seq})
}

// suppressedPeek keeps the escape hatch working.
func (e *Engine) suppressedPeek(slot int32) []byte {
	return e.frames.buf[slot] //simlint:arenaescape debug-only inspection behind a build tag
}
