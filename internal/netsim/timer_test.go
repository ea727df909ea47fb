package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// timerStep is one scripted action at time at: re-arm the timer d from
// then, stop it, or schedule a labelled event d later.
type timerStep struct {
	at, d Time
	op    int // 0 reset, 1 stop, 2 schedule
}

// runTimerScript plays steps on a fresh engine and records every labelled
// event and timer expiry as label@time, in run order. With useTimer the
// clock is one Timer; otherwise it is the closure-per-arm idiom a Timer
// replaces: one Schedule per arm and a generation check that lets every
// superseded arm fire dead. The expiry re-arms itself on every third
// fire, so reset-after-fire is part of every script.
func runTimerScript(useTimer bool, steps []timerStep) (got []string, processed uint64, end Time) {
	e := NewEngine()
	rec := func(label string) { got = append(got, fmt.Sprintf("%s@%d", label, e.Now())) }
	var reset func(d Time)
	var stop func()
	fires := 0
	onFire := func() {
		rec("timer")
		if fires++; fires%3 == 1 {
			reset(7)
		}
	}
	if useTimer {
		tm := e.NewTimer(onFire)
		reset = func(d Time) { tm.Reset(time.Duration(d)) }
		stop = func() { tm.Stop() }
	} else {
		gen, armed := 0, false
		reset = func(d Time) {
			gen++
			g := gen
			armed = true
			e.Schedule(e.Now()+d, func() {
				if g == gen && armed {
					armed = false
					onFire()
				}
			})
		}
		stop = func() { armed = false }
	}
	for i, st := range steps {
		label := fmt.Sprintf("e%d", i)
		e.Schedule(st.at, func() {
			switch st.op {
			case 0:
				reset(st.d)
			case 1:
				stop()
			default:
				e.Schedule(e.Now()+st.d, func() { rec(label) })
			}
		})
	}
	if err := e.Run(0); err != nil {
		panic(err)
	}
	return got, e.Processed, e.Now()
}

// TestTimerOrderMatchesSchedule: a timer reset k times runs among
// same-tick events exactly where one Schedule made at its last Reset
// would run, and only the superseded arms' events disappear. Scripts
// crowd resets, stops and labelled events into a few ticks so deadlines
// collide with other events; half of them re-arm with one constant
// delay, as a retransmit clock does, and there the engine must also
// drain at the same time. Kills the mutant that re-queues a pop under a
// fresh seq (the timer then runs after events scheduled between its last
// Reset and its first pop).
func TestTimerOrderMatchesSchedule(t *testing.T) {
	// Hand case: resets at ticks 0, 1 and 2 all aim at tick 10; events
	// e0, e2, e4 and e6 are scheduled for tick 10 around them.
	hand := []timerStep{
		{at: 0, d: 10, op: 2}, {at: 0, d: 10, op: 0}, {at: 0, d: 10, op: 2},
		{at: 1, d: 9, op: 0}, {at: 1, d: 9, op: 2},
		{at: 2, d: 8, op: 0}, {at: 2, d: 8, op: 2},
	}
	scripts := [][]timerStep{hand}
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 400; s++ {
		steps := make([]timerStep, 5+rng.Intn(40))
		for i := range steps {
			st := timerStep{at: Time(rng.Intn(30)), d: Time(rng.Intn(12))}
			switch r := rng.Intn(10); {
			case r == 0:
				st.op = 1
			case r < 6:
				st.op = 2
			case s%2 == 1:
				st.d = 7 // the constant re-arm delay onFire uses too
			}
			steps[i] = st
		}
		scripts = append(scripts, steps)
	}
	for i, steps := range scripts {
		want, wantEvents, wantEnd := runTimerScript(false, steps)
		got, events, end := runTimerScript(true, steps)
		if !slices.Equal(got, want) {
			t.Fatalf("script %d: timer order %v\nwant (one Schedule per arm) %v", i, got, want)
		}
		if events > wantEvents {
			t.Fatalf("script %d: %d events, more than one Schedule per arm (%d)", i, events, wantEvents)
		}
		if i%2 == 0 && end != wantEnd { // the hand case and the constant-delay scripts
			t.Fatalf("script %d: drained at %v, want %v", i, end, wantEnd)
		}
	}
	if got, _, _ := runTimerScript(true, hand); !slices.Equal(got, []string{"e0@10", "e2@10", "e4@10", "timer@10", "e6@10", "timer@17"}) {
		t.Fatalf("hand case: %v", got)
	}
}

// TestTimerStop: a stopped timer never runs, its queued pop runs dead out
// to the last Reset's deadline, and Reset and Stop report whether the
// timer had been armed.
func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	if tm.Stop() {
		t.Fatal("Stop on a new timer reported it armed")
	}
	if tm.Reset(5) {
		t.Fatal("first Reset reported the timer armed")
	}
	if !tm.Reset(6) {
		t.Fatal("second Reset reported the timer stopped")
	}
	if !tm.Stop() || tm.Stop() {
		t.Fatal("Stop must report armed once, then stopped")
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 0 || e.Processed != 2 || e.Now() != 6 {
		t.Fatalf("fired %d times over %d events, drained at %v; want a stopped timer's pop to run dead at 5 and 6",
			fired, e.Processed, e.Now())
	}
}

// TestTimerResetAfterFire: the callback may re-arm its own timer, and
// each expiry runs at its own deadline.
func TestTimerResetAfterFire(t *testing.T) {
	e := NewEngine()
	var at []Time
	var tm *Timer
	tm = e.NewTimer(func() {
		at = append(at, e.Now())
		if len(at) < 3 {
			tm.Reset(4)
		}
	})
	tm.Reset(2)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(at, []Time{2, 6, 10}) || e.Processed != 3 {
		t.Fatalf("expiries at %v over %d events, want [2 6 10] over 3", at, e.Processed)
	}
}

// TestTimerResetZeroAlloc: once the timer's record and the engine are
// warm, re-arming — before the pop, after it, and toward an earlier
// deadline — allocates nothing.
func TestTimerResetZeroAlloc(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	cycle := func() {
		tm.Reset(3)
		tm.Reset(5) // later: the queued pop re-queues
		tm.Reset(1) // earlier: a second pop, the first runs dead
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("timer Reset: %v allocs/op, want 0", allocs)
	}
	if fired != 102 { // AllocsPerRun runs one warm-up cycle of its own
		t.Fatalf("fired %d times, want once per cycle (102)", fired)
	}
}

// BenchmarkTimerReset is an ACK clock: every tick re-arms the retransmit
// timer 8 ticks out, so its one pop keeps re-queueing and never fires.
// It must stay at 0 allocs/op.
func BenchmarkTimerReset(b *testing.B) {
	e := NewEngine()
	tm := e.NewTimer(func() { b.Fatal("ACK clock expired") })
	var tick func()
	tick = func() {
		tm.Reset(8)
		e.Schedule(e.Now()+1, tick)
	}
	e.Schedule(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
