package netsim

import (
	"fmt"
	"testing"
	"time"
)

// Tests for the fault-subsystem substrate: administrative link state and
// the quiescent-control RunUntil primitive.

func TestSetLinkStateDropsAndRevives(t *testing.T) {
	nw := New(1)
	a, b := &sink{}, &sink{}
	nw.AddNode(1, a)
	nw.AddNode(2, b)
	nw.Connect(1, 2, LinkConfig{})

	if !nw.LinkUp(1, 2) {
		t.Fatal("fresh link reported down")
	}
	if err := nw.SetLinkState(1, 2, false); err != nil {
		t.Fatal(err)
	}
	if nw.LinkUp(1, 2) {
		t.Fatal("downed link reported up")
	}
	nw.Send(1, 0, make([]byte, 64))
	nw.Send(2, 0, make([]byte, 64)) // both directions fail
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(a.frames)+len(b.frames) != 0 {
		t.Fatalf("frames crossed a downed link: %d/%d", len(a.frames), len(b.frames))
	}
	if st := nw.PortStats(1, 0); st.DropsDown != 1 || st.TxFrames != 0 {
		t.Fatalf("a->b stats %+v", st)
	}
	if st := nw.PortStats(2, 0); st.DropsDown != 1 {
		t.Fatalf("b->a stats %+v", st)
	}

	if err := nw.SetLinkState(1, 2, true); err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 0, make([]byte, 64))
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(b.frames) != 1 {
		t.Fatalf("revived link delivered %d frames", len(b.frames))
	}
	// One administrative down-up cycle = one flap, not one per direction;
	// a redundant down while already down is not a new flap.
	if got := nw.LinkFlaps(1, 2); got != 1 {
		t.Fatalf("LinkFlaps = %d after one cycle, want 1", got)
	}
	_ = nw.SetLinkState(1, 2, false)
	_ = nw.SetLinkState(1, 2, false)
	_ = nw.SetLinkState(1, 2, true)
	if got := nw.LinkFlaps(2, 1); got != 2 {
		t.Fatalf("LinkFlaps = %d after second cycle, want 2", got)
	}
	if err := nw.SetLinkState(1, 42, false); err == nil {
		t.Fatal("no error for unknown link")
	}
}

// TestTotalStatsCountsDropsDown: a frame discarded on a downed link is
// part of the fabric-wide totals, not only of its port's stats.
func TestTotalStatsCountsDropsDown(t *testing.T) {
	nw := New(1)
	nw.AddNode(1, &sink{})
	nw.AddNode(2, &sink{})
	nw.Connect(1, 2, LinkConfig{})
	if err := nw.SetLinkState(1, 2, false); err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 0, make([]byte, 64))
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if tot := nw.TotalStats(); tot.DropsDown != 1 || tot.TxFrames != 0 {
		t.Fatalf("TotalStats %+v, want DropsDown 1 and no transmissions", tot)
	}
}

func TestLinkDownLeavesInFlightFrames(t *testing.T) {
	nw := New(1)
	a, b := &sink{}, &sink{}
	nw.AddNode(1, a)
	nw.AddNode(2, b)
	nw.Connect(1, 2, LinkConfig{BandwidthBps: 1_000_000_000, Propagation: time.Microsecond})
	nw.Send(1, 0, make([]byte, 125)) // arrives at 2µs
	// The frame left the transmitter before the failure: it still arrives.
	if err := nw.SetLinkState(1, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(b.frames) != 1 {
		t.Fatalf("in-flight frame lost: %d delivered", len(b.frames))
	}
}

// relay forwards frames down a chain with a per-hop timer, recording every
// arrival — enough activity to make RunUntil windows and link flaps
// observable. Frames carry a TTL byte; the relay decrements and forwards
// out the "other" port until it hits zero.
type relay struct {
	nw  *Network
	id  NodeID
	log []string
}

func (r *relay) Attach(nw *Network, id NodeID) { r.nw, r.id = nw, id }
func (r *relay) HandleFrame(inPort int, frame []byte) {
	r.log = append(r.log, fmt.Sprintf("t=%v ttl=%d port=%d", r.nw.Now(), frame[0], inPort))
	if frame[0] == 0 {
		return
	}
	out := 0
	if r.nw.NumPorts(r.id) > 1 && inPort == 0 {
		out = 1
	}
	next := append([]byte(nil), frame...)
	next[0]--
	r.nw.Eng.After(200, func() { r.nw.Send(r.id, out, next) })
}

// TestRunUntilConformance drives a chain workload — including mid-run link
// flaps applied at quiescent control points — and requires the clock to sit
// at every deadline and the per-node logs, stats and final clock to match
// the recorded run. This is the contract the fault injector relies on.
func TestRunUntilConformance(t *testing.T) {
	run := func() string {
		nw := New(3)
		nodes := make([]*relay, 4)
		for i := range nodes {
			nodes[i] = &relay{}
			nw.AddNode(NodeID(i+1), nodes[i])
		}
		cfg := LinkConfig{BandwidthBps: 1_000_000_000, Propagation: 3 * time.Microsecond}
		nw.Connect(1, 2, cfg)
		nw.Connect(2, 3, cfg)
		nw.Connect(3, 4, cfg)
		// Seed several bouncing frames.
		for i := 0; i < 4; i++ {
			f := make([]byte, 64)
			f[0] = byte(10 + i)
			nw.Send(1, 0, f)
		}
		// Quiescent control loop: advance in windows, flap the middle link.
		steps := []struct {
			at   Time
			down *bool
		}{
			{at: Duration(10 * time.Microsecond)},
			{at: Duration(20 * time.Microsecond), down: boolPtr(true)},
			{at: Duration(35 * time.Microsecond), down: boolPtr(false)},
			{at: Duration(50 * time.Microsecond)},
		}
		for _, s := range steps {
			if err := nw.RunUntil(s.at); err != nil {
				t.Fatal(err)
			}
			if got := nw.Now(); got != s.at {
				t.Fatalf("clock %v after RunUntil(%v)", got, s.at)
			}
			if s.down != nil {
				if err := nw.SetLinkState(2, 3, !*s.down); err != nil {
					t.Fatal(err)
				}
				// Inject fresh traffic from the control plane, as the
				// fault driver's round restarts do.
				f := make([]byte, 64)
				f[0] = 6
				nw.Send(2, 1, f)
			}
		}
		if err := nw.Run(0); err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("end=%v processed=%d total=%+v\n", nw.Now(), nw.Processed(), nw.TotalStats())
		for i, n := range nodes {
			out += fmt.Sprintf("node%d: %v\n", i+1, n.log)
		}
		return out
	}
	if got := run(); got != runUntilWant {
		t.Fatalf("RunUntil run diverged from the recording:\ngot:\n%s\nwant:\n%s", got, runUntilWant)
	}
}

// runUntilWant is TestRunUntilConformance's recorded output.
const runUntilWant = `end=60.784µs processed=69 total={TxFrames:35 TxBytes:2240 DropsFull:0 DropsPool:0 DropsLoss:0 DropsDown:5}
node1: [t=22.072µs ttl=5 port=0 t=22.584µs ttl=6 port=0 t=23.096µs ttl=7 port=0 t=23.608µs ttl=8 port=0 t=53.36µs ttl=2 port=0]
node2: [t=3.512µs ttl=10 port=0 t=4.024µs ttl=11 port=0 t=4.536µs ttl=12 port=0 t=5.048µs ttl=13 port=0 t=18.36µs ttl=6 port=1 t=18.872µs ttl=7 port=1 t=19.384µs ttl=8 port=1 t=19.896µs ttl=9 port=1 t=25.784µs ttl=4 port=0 t=26.296µs ttl=5 port=0 t=26.808µs ttl=6 port=0 t=27.32µs ttl=7 port=0 t=49.648µs ttl=3 port=1 t=57.072µs ttl=1 port=0]
node3: [t=7.224µs ttl=9 port=0 t=7.736µs ttl=10 port=0 t=8.248µs ttl=11 port=0 t=8.76µs ttl=12 port=0 t=14.648µs ttl=7 port=1 t=15.16µs ttl=8 port=1 t=15.672µs ttl=9 port=1 t=16.184µs ttl=10 port=1 t=38.512µs ttl=6 port=0 t=45.936µs ttl=4 port=1 t=60.784µs ttl=0 port=0]
node4: [t=10.936µs ttl=8 port=0 t=11.448µs ttl=9 port=0 t=11.96µs ttl=10 port=0 t=12.472µs ttl=11 port=0 t=42.224µs ttl=5 port=0]
`

func boolPtr(b bool) *bool { return &b }

// TestResetPoolOnCrash: a crash at a quiescent control point zeroes the
// node's shared buffer occupancy accounting while cumulative statistics
// survive, and post-restart admissions start against an empty pool, ending
// in the recorded state. (Already-admitted frames keep their scheduled
// deliveries: netsim models departure at admission time.)
func TestResetPoolOnCrash(t *testing.T) {
	run := func() string {
		nw := New(5)
		a, b := &sink{}, &sink{}
		nw.AddNode(1, a)
		nw.AddNode(2, b)
		nw.Connect(1, 2, LinkConfig{BandwidthBps: 1_000_000, QueueBytes: 1 << 30})
		if err := nw.SetNodePool(1, PoolConfig{TotalBytes: 300, Alpha: 8}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			nw.Send(1, 0, make([]byte, 100)) // 3 admitted, 1 pool drop
		}
		// Advance a little: the first frame (800 µs) has not serialized yet,
		// so the memory is still fully occupied at the control point.
		if err := nw.RunUntil(Duration(100 * time.Microsecond)); err != nil {
			t.Fatal(err)
		}
		before, _ := nw.PoolStats(1)
		if before.Used != 300 {
			t.Fatalf("pre-crash pool %+v, want 300 B occupied", before)
		}
		nw.ResetPool(1) // the crash: buffered frames are gone
		after, _ := nw.PoolStats(1)
		if after.Used != 0 || after.HighWater != 300 || after.Drops != 1 {
			t.Fatalf("post-crash pool %+v; want empty with stats intact", after)
		}
		// Post-restart traffic is admitted against the empty memory.
		for i := 0; i < 3; i++ {
			nw.Send(1, 0, make([]byte, 100))
		}
		if err := nw.Run(0); err != nil {
			t.Fatal(err)
		}
		final, _ := nw.PoolStats(1)
		return fmt.Sprintf("end=%v stats=%+v pool=%+v delivered=%d",
			nw.Now(), nw.PortStats(1, 0), final, len(b.frames))
	}
	const want = `end=4.801ms stats={TxFrames:6 TxBytes:600 DropsFull:0 DropsPool:1 DropsLoss:0 DropsDown:0} pool={TotalBytes:300 Used:0 Committed:0 HighWater:300 Drops:1 Classes:[{ReserveBytes:0 Alpha:8 Used:0 HighWater:300 Drops:1}]} delivered=6`
	if got := run(); got != want {
		t.Fatalf("ResetPool run diverged from the recording:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestResetPoolWithoutPool: a poolless node's private queue accounting
// still clears (pooled and poolless switches crash symmetrically); an
// unknown node is a safe no-op.
func TestResetPoolWithoutPool(t *testing.T) {
	nw := New(1)
	a, b := &sink{}, &sink{}
	nw.AddNode(1, a)
	nw.AddNode(2, b)
	nw.Connect(1, 2, LinkConfig{BandwidthBps: 1_000_000, QueueBytes: 300})
	for i := 0; i < 4; i++ {
		nw.Send(1, 0, make([]byte, 100)) // fills the 300 B private FIFO
	}
	if st := nw.PortStats(1, 0); st.DropsFull != 1 {
		t.Fatalf("pre-crash stats %+v", st)
	}
	nw.ResetPool(1) // crash: the dead boot's occupancy must not survive
	nw.Send(1, 0, make([]byte, 100))
	if st := nw.PortStats(1, 0); st.TxFrames != 4 || st.DropsFull != 1 {
		t.Fatalf("post-crash stats %+v; want the fresh frame admitted", st)
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	nw.ResetPool(42) // unknown node: no-op
}

// TestRunUntilIdleAdvancesClocks: with nothing queued, RunUntil still
// moves the clock to the deadline.
func TestRunUntilIdleAdvancesClocks(t *testing.T) {
	nw := New(1)
	nw.AddNode(1, &sink{})
	nw.AddNode(2, &sink{})
	nw.Connect(1, 2, LinkConfig{})
	if err := nw.RunUntil(12345); err != nil {
		t.Fatal(err)
	}
	if nw.Now() != 12345 {
		t.Fatalf("clock %v want 12345", nw.Now())
	}
}
