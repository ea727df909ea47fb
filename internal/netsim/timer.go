package netsim

import (
	"fmt"
	"time"
)

// Timer is a re-armable callback on the engine's clock, shaped like
// *time.Timer: NewTimer builds it stopped, Reset arms it and Stop disarms
// it. Its owner keeps the one record for life, so a retransmit clock that
// is re-armed on every acknowledgement allocates nothing per arm and
// leaves no dead event behind per arm.
//
// Ordering: fn runs exactly where an Engine.Schedule made at the last
// Reset would run. Reset takes its insertion stamp from the engine
// counter as Schedule does. A pop that finds the deadline moved later
// re-queues itself under the stamp that Reset saved, so it takes no new
// one. So every event that runs keeps the (at, seq) position that one
// Schedule per arm would give it, and only the superseded arms' events
// are gone. A stopped timer's pop still runs out to the last deadline, so
// while deadlines never move earlier (a constant RTO) the engine also
// drains at the same time.
type Timer struct {
	e      *Engine
	fn     func()
	expire func() // t.pop, bound once so a queued pop allocates nothing

	at    Time   // deadline while armed
	seq   uint64 // insertion stamp Reset took for that deadline
	armed bool

	// queued holds the keys of this timer's pops in the event queue,
	// latest first. Pops run in key order, so the last entry is the one
	// running when pop is called. Only a Reset to an earlier deadline
	// than the queued pop queues a second one.
	queued []timerKey
}

type timerKey struct {
	at  Time
	seq uint64
}

// NewTimer returns a stopped timer that runs fn when it expires.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{e: e, fn: fn}
	t.expire = t.pop
	return t
}

// Reset arms the timer to run fn d from now, replacing any pending
// deadline, and reports whether the timer had been armed. While a pop at
// or before the new deadline is queued, Reset queues nothing.
func (t *Timer) Reset(d time.Duration) bool {
	e := t.e
	at := e.now + Duration(d)
	if at < e.now {
		panic(fmt.Sprintf("netsim: timer reset to %v before now %v", at, e.now))
	}
	was := t.armed
	e.seq++
	t.at, t.seq, t.armed = at, e.seq, true
	t.cover()
	return was
}

// Stop disarms the timer and reports whether it had been armed. Its
// queued pop stays and runs dead, at the deadline of the last Reset.
func (t *Timer) Stop() bool {
	was := t.armed
	t.armed = false
	return was
}

// cover queues a pop at the deadline unless one at or before it is
// queued already. A queued pop at the same tick has the smaller stamp.
func (t *Timer) cover() {
	if n := len(t.queued); n == 0 || t.at < t.queued[n-1].at {
		t.e.scheduleAt(t.at, t.seq, t.expire)
		t.queued = append(t.queued, timerKey{t.at, t.seq})
	}
}

// pop is the timer's event. The deadline's own pop runs fn if the timer
// is armed; an earlier one re-queues toward the deadline, armed or not;
// a later one (left by a Reset to an earlier deadline) runs dead.
func (t *Timer) pop() {
	n := len(t.queued) - 1
	k := t.queued[n]
	t.queued = t.queued[:n]
	switch {
	case k == timerKey{t.at, t.seq}:
		if t.armed {
			t.armed = false
			t.fn()
		}
	case k.at < t.at || k.at == t.at && k.seq < t.seq:
		t.cover()
	}
}
