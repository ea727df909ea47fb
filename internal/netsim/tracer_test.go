package netsim

import (
	"testing"
)

// collectTracer retains every FrameTraceInfo it sees (test-only; real
// tracers must not allocate on the steady path).
type collectTracer struct {
	infos []FrameTraceInfo
}

func (c *collectTracer) TraceFrame(info FrameTraceInfo, frame []byte) {
	c.infos = append(c.infos, info)
}

// TestFrameTracerVerdicts drives one attempt of every verdict through a
// traced fabric and checks the reported verdicts and occupancy.
func TestFrameTracerVerdicts(t *testing.T) {
	nw, _, _ := poolWorld(t, PoolConfig{TotalBytes: 1000, ReserveBytes: 100, Alpha: 4})
	tr := &collectTracer{}
	nw.SetFrameTracer(tr)

	// 12 sends on port 0: the slow fabric admits 8 (see
	// TestPoolSharedMemoryFills) and pool-rejects 4.
	for i := 0; i < 12; i++ {
		nw.Send(1, 0, make([]byte, 100))
	}
	if len(tr.infos) != 12 {
		t.Fatalf("traced %d attempts, want 12", len(tr.infos))
	}
	for i, info := range tr.infos {
		if info.Src != 1 || info.Dst != 2 || info.Size != 100 {
			t.Fatalf("attempt %d: %+v", i, info)
		}
		if i < 8 {
			if info.Verdict != FrameAccepted {
				t.Fatalf("attempt %d: verdict %v, want accepted", i, info.Verdict)
			}
			// Accepted records include the frame just charged.
			if want := (i + 1) * 100; info.PoolUsedBytes != want {
				t.Fatalf("attempt %d: pool %d, want %d", i, info.PoolUsedBytes, want)
			}
		} else {
			if info.Verdict != FrameDropPool {
				t.Fatalf("attempt %d: verdict %v, want drop-pool", i, info.Verdict)
			}
			// Drops report the occupancy the rejection was judged against.
			if info.PoolUsedBytes != 800 {
				t.Fatalf("attempt %d: pool %d, want 800", i, info.PoolUsedBytes)
			}
		}
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}

	// Each half-link reports its own endpoints.
	tr.infos = nil
	nw.Send(1, 1, make([]byte, 50))
	if len(tr.infos) != 1 {
		t.Fatalf("port 1 trace %+v", tr.infos)
	}
	if tr.infos[0].Dst != 3 {
		t.Fatalf("port 1 trace %+v", tr.infos[0])
	}
}

// TestFrameTracerPoollessAndDownVerdicts covers the verdicts poolWorld
// cannot produce: private-FIFO overflow, injected loss, and admin-down.
func TestFrameTracerPoollessAndDownVerdicts(t *testing.T) {
	nw := New(1)
	nw.AddNode(1, &sink{})
	nw.AddNode(2, &sink{})
	nw.AddNode(3, &sink{})
	nw.Connect(1, 2, LinkConfig{BandwidthBps: 1_000_000, QueueBytes: 150})
	nw.Connect(1, 3, LinkConfig{LossProb: 1})
	tr := &collectTracer{}
	nw.SetFrameTracer(tr)

	nw.Send(1, 0, make([]byte, 100)) // accepted, queued 100
	nw.Send(1, 0, make([]byte, 100)) // 200 > 150: drop-full
	nw.Send(1, 1, make([]byte, 100)) // LossProb 1: drop-loss
	if err := nw.SetLinkState(1, 2, false); err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 0, make([]byte, 100)) // drop-down

	want := []struct {
		verdict FrameVerdict
		dst     NodeID
		queued  int
		pool    int
	}{
		{FrameAccepted, 2, 100, -1},
		{FrameDropFull, 2, 100, -1},
		{FrameDropLoss, 3, 0, -1},
		{FrameDropDown, 2, 100, -1},
	}
	if len(tr.infos) != len(want) {
		t.Fatalf("traced %d attempts, want %d", len(tr.infos), len(want))
	}
	for i, w := range want {
		got := tr.infos[i]
		if got.Verdict != w.verdict || got.Dst != w.dst ||
			got.QueuedBytes != w.queued || got.PoolUsedBytes != w.pool {
			t.Fatalf("attempt %d: got %+v, want %+v", i, got, w)
		}
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestSendTracerOffZeroAlloc pins the hot-path contract from tracer.go:
// with no tracer installed, the steady-state send+drain path allocates
// nothing — the hook costs one nil check.
func TestSendTracerOffZeroAlloc(t *testing.T) {
	nw := New(1)
	s := &countSink{}
	nw.AddNode(1, &countSink{})
	nw.AddNode(2, s)
	nw.Connect(1, 2, LinkConfig{})
	frame := make([]byte, 256)
	// Warm the arenas through one round.
	nw.Send(1, 0, frame)
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		nw.Send(1, 0, frame)
		if err := nw.Run(0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("tracer-off send path: %v allocs/op, want 0", allocs)
	}
	if s.n == 0 {
		t.Fatal("no frames delivered")
	}
}

// TestTimerZeroAlloc pins the callback path of the event loop: once the
// arenas and the heap are warm, scheduling a pre-built func and stepping
// it allocates nothing.
func TestTimerZeroAlloc(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := func() { fired++ }
	e.After(1, fn)
	e.Step()
	allocs := testing.AllocsPerRun(200, func() {
		e.After(1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("timer path: %v allocs/op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no timer fired")
	}
}
