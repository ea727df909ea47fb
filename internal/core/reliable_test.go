package core_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/transport"
	"github.com/daiet/daiet/internal/wire"
)

// buildLossyRig builds a single-switch fabric where mapper links drop
// frames with probability lossProb while the reducer's link is clean (the
// extension protects the worker->switch edge hop; see reliable.go).
func buildLossyRig(t *testing.T, nMappers int, lossProb float64) (*rig, []netsim.NodeID, netsim.NodeID) {
	t.Helper()
	r := &rig{
		nw:       netsim.New(99),
		programs: make(map[netsim.NodeID]*core.Program),
		hosts:    make(map[netsim.NodeID]*transport.Host),
	}
	// Hand-build the plan so per-link loss differs.
	sw := topology.SwitchBase
	plan := &topology.Plan{Name: "lossy", Switches: []netsim.NodeID{sw}}
	for i := 0; i < nMappers+1; i++ {
		h := topology.HostBase + netsim.NodeID(i)
		plan.Hosts = append(plan.Hosts, h)
		cfg := netsim.LinkConfig{}
		if i < nMappers {
			cfg.LossProb = lossProb
		}
		plan.Links = append(plan.Links, topology.Link{A: h, B: sw, Cfg: cfg})
	}
	mkSwitch := func(id netsim.NodeID) netsim.Node {
		prog, err := core.NewProgram(core.ProgramConfig{})
		if err != nil {
			t.Fatal(err)
		}
		r.programs[id] = prog
		return prog.Switch()
	}
	mkHost := func(id netsim.NodeID) netsim.Node {
		h := transport.NewHost()
		r.hosts[id] = h
		return h
	}
	r.fab = plan.Realize(r.nw, mkSwitch, mkHost)
	r.ctl = controller.New(r.fab, r.programs)
	if err := r.ctl.InstallRouting(); err != nil {
		t.Fatal(err)
	}
	return r, plan.Hosts[:nMappers], plan.Hosts[nMappers]
}

// installReliableTree installs one tree with the reliability gate on.
func installReliableTree(t *testing.T, r *rig, reducer netsim.NodeID, mappers []netsim.NodeID, tableSize int) *controller.TreePlan {
	t.Helper()
	plan, err := r.ctl.PlanTree(reducer, mappers)
	if err != nil {
		t.Fatal(err)
	}
	senders := make([]uint32, len(mappers))
	for i, m := range mappers {
		senders[i] = uint32(m)
	}
	for _, sw := range plan.SwitchNodes {
		err := r.programs[sw].ConfigureTree(core.TreeConfig{
			TreeID:    plan.TreeID,
			OutPort:   r.fab.PortTo(sw, plan.Parent[sw]),
			Children:  plan.Children[sw],
			Agg:       core.AggSum,
			TableSize: tableSize,
			Reliable:  true,
			Senders:   senders,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return plan
}

func TestReliableAggregationUnderLoss(t *testing.T) {
	const nMappers, keys = 3, 120
	r, mappers, reducer := buildLossyRig(t, nMappers, 0.15)
	plan := installReliableTree(t, r, reducer, mappers, 1024)

	sum, _ := core.FuncByID(core.AggSum)
	col := core.NewCollector(uint32(reducer), sum, wire.DefaultGeometry, plan.RootChildren())
	col.Attach(r.hosts[reducer])

	want := map[string]uint32{}
	var senders []*core.ReliableSender
	for mi, m := range mappers {
		mux := core.NewAckMux(r.hosts[m])
		s, err := core.NewReliableSender(r.hosts[m], uint32(reducer), reducer,
			wire.DefaultGeometry, 10, core.ReliableConfig{RTO: 500 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		mux.Register(s)
		senders = append(senders, s)
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("key%03d", k)
			val := uint32(mi*1000 + k)
			want[key] += val
			if err := s.Send([]byte(key), val); err != nil {
				t.Fatal(err)
			}
		}
		s.End()
	}
	if err := r.nw.Run(50_000_000); err != nil {
		t.Fatal(err)
	}

	if !col.Complete() {
		t.Fatalf("collector incomplete under loss: %+v", col.Stats)
	}
	// Exactly-once despite retransmission: sums must match the reference.
	got := col.Result()
	if len(got) != len(want) {
		t.Fatalf("keys %d want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q = %d want %d (duplicate aggregation?)", k, got[k], v)
		}
	}
	var retrans uint64
	for _, s := range senders {
		if !s.Done() {
			t.Fatalf("sender not done: err=%v", s.Err())
		}
		retrans += s.Stats.Retransmissions
	}
	if retrans == 0 {
		t.Fatal("no retransmissions at 15% loss — loss injection broken?")
	}
	// Switch-side: duplicates must have been filtered.
	st, _ := r.programs[plan.SwitchNodes[0]].TreeStats(plan.TreeID)
	if st.DupsDropped+st.GapsDropped == 0 {
		t.Fatalf("gate never filtered anything: %+v", st)
	}
	if st.AcksOut == 0 {
		t.Fatal("no ACKs emitted")
	}
}

func TestUnreliableSendersLoseDataUnderLoss(t *testing.T) {
	// Control experiment: the base protocol under the same loss fails to
	// complete — the gap the extension closes.
	const nMappers = 3
	r, mappers, reducer := buildLossyRig(t, nMappers, 0.15)
	plan, err := r.ctl.PlanTree(reducer, mappers)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ctl.InstallTree(plan, controller.TreeOptions{Agg: core.AggSum, TableSize: 1024}); err != nil {
		t.Fatal(err)
	}
	sum, _ := core.FuncByID(core.AggSum)
	col := core.NewCollector(uint32(reducer), sum, wire.DefaultGeometry, plan.RootChildren())
	col.Attach(r.hosts[reducer])
	for _, m := range mappers {
		s, _ := core.NewSender(r.hosts[m], uint32(reducer), reducer, wire.DefaultGeometry, 10)
		for k := 0; k < 120; k++ {
			_ = s.Send([]byte(fmt.Sprintf("key%03d", k)), 1)
		}
		s.End()
	}
	if err := r.nw.Run(0); err != nil {
		t.Fatal(err)
	}
	// With 15% loss over ~39 packets, some DATA or END is essentially
	// guaranteed to vanish: either the round stalls (lost END) or some
	// key's sum falls short of the true value 3 (lost DATA).
	if col.Complete() {
		short := 0
		for k := 0; k < 120; k++ {
			if col.Result()[fmt.Sprintf("key%03d", k)] != uint32(nMappers) {
				short++
			}
		}
		if short == 0 {
			t.Fatal("lossy unreliable run completed perfectly; loss injection broken?")
		}
	}
}

func TestReliableSenderGivesUpEventually(t *testing.T) {
	// 100% loss: the sender must fail cleanly, not livelock.
	r, mappers, reducer := buildLossyRig(t, 1, 1.0)
	installReliableTree(t, r, reducer, mappers, 64)

	var gotErr error
	mux := core.NewAckMux(r.hosts[mappers[0]])
	s, err := core.NewReliableSender(r.hosts[mappers[0]], uint32(reducer), reducer,
		wire.DefaultGeometry, 10, core.ReliableConfig{RTO: 100 * time.Microsecond, MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	mux.Register(s)
	s.OnError = func(e error) { gotErr = e }
	_ = s.Send([]byte("k"), 1)
	s.End()
	if err := r.nw.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil || s.Err() == nil {
		t.Fatal("sender never gave up under 100% loss")
	}
	if s.Done() {
		t.Fatal("Done must be false after failure")
	}
}

func TestReliableRejectsUnknownSender(t *testing.T) {
	r, mappers, reducer := buildLossyRig(t, 2, 0)
	// Only mapper 0 is registered.
	plan, err := r.ctl.PlanTree(reducer, mappers)
	if err != nil {
		t.Fatal(err)
	}
	sw := plan.SwitchNodes[0]
	if err := r.programs[sw].ConfigureTree(core.TreeConfig{
		TreeID:    plan.TreeID,
		OutPort:   r.fab.PortTo(sw, reducer),
		Children:  plan.Children[sw],
		Agg:       core.AggSum,
		TableSize: 64,
		Reliable:  true,
		Senders:   []uint32{uint32(mappers[0])},
	}); err != nil {
		t.Fatal(err)
	}
	// The unregistered mapper's packets must be dropped and counted.
	s, _ := core.NewSender(r.hosts[mappers[1]], uint32(reducer), reducer, wire.DefaultGeometry, 10)
	_ = s.Send([]byte("x"), 1)
	s.End()
	if err := r.nw.Run(0); err != nil {
		t.Fatal(err)
	}
	st, _ := r.programs[sw].TreeStats(plan.TreeID)
	if st.UnknownSender == 0 {
		t.Fatalf("unknown sender not counted: %+v", st)
	}
	if st.PairsIn != 0 {
		t.Fatalf("unknown sender's pairs were aggregated: %+v", st)
	}
}

func TestReliableConfigValidation(t *testing.T) {
	p, err := core.NewProgram(core.ProgramConfig{})
	if err != nil {
		t.Fatal(err)
	}
	err = p.ConfigureTree(core.TreeConfig{
		TreeID: 1, Children: 1, TableSize: 8, Agg: core.AggSum, Reliable: true,
	})
	if err == nil {
		t.Fatal("reliable without senders must fail")
	}
	if p.Registers().Used() != 0 {
		t.Fatalf("failed config leaked %d bytes", p.Registers().Used())
	}
}

func TestReliableTwoRounds(t *testing.T) {
	// Sequence numbers reset after flush: a second round with fresh senders
	// must work on the same tree.
	r, mappers, reducer := buildLossyRig(t, 2, 0.1)
	plan := installReliableTree(t, r, reducer, mappers, 256)
	sum, _ := core.FuncByID(core.AggSum)

	muxes := make([]*core.AckMux, len(mappers))
	for i, m := range mappers {
		muxes[i] = core.NewAckMux(r.hosts[m])
	}
	for round := 1; round <= 2; round++ {
		col := core.NewCollector(uint32(reducer), sum, wire.DefaultGeometry, plan.RootChildren())
		col.Attach(r.hosts[reducer])
		want := map[string]uint32{}
		for _, m := range mappers {
			s, err := core.NewReliableSender(r.hosts[m], uint32(reducer), reducer,
				wire.DefaultGeometry, 10, core.ReliableConfig{
					RTO:   500 * time.Microsecond,
					Epoch: uint8(round), // distinguishes the rounds on the wire
				})
			if err != nil {
				t.Fatal(err)
			}
			muxes[indexOf(mappers, m)].Register(s)
			for k := 0; k < 30; k++ {
				key := fmt.Sprintf("r%dk%02d", round, k)
				want[key] += uint32(k)
				if err := s.Send([]byte(key), uint32(k)); err != nil {
					t.Fatal(err)
				}
			}
			s.End()
		}
		if err := r.nw.Run(20_000_000); err != nil {
			t.Fatal(err)
		}
		if !col.Complete() {
			t.Fatalf("round %d incomplete: %+v", round, col.Stats)
		}
		for k, v := range want {
			if col.Result()[k] != v {
				t.Fatalf("round %d key %q = %d want %d", round, k, col.Result()[k], v)
			}
		}
	}
}

func indexOf(ids []netsim.NodeID, id netsim.NodeID) int {
	for i, v := range ids {
		if v == id {
			return i
		}
	}
	return -1
}

// fakeClockCarrier is a TimerCarrier on a hand-advanced clock: it counts
// every datagram and runs a timer only when advance passes its deadline.
type fakeClockCarrier struct {
	now    time.Duration
	timers []*fakeTimer
	sent   int
}

type fakeTimer struct {
	c     *fakeClockCarrier
	at    time.Duration
	armed bool
	fn    func()
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	was := t.armed
	t.at, t.armed = t.c.now+d, true
	return was
}

func (t *fakeTimer) Stop() bool {
	was := t.armed
	t.armed = false
	return was
}

func (c *fakeClockCarrier) ID() netsim.NodeID { return 1 }

func (c *fakeClockCarrier) SendUDP(netsim.NodeID, uint16, uint16, []byte) { c.sent++ }

func (c *fakeClockCarrier) NewTimer(fn func()) core.Timer {
	t := &fakeTimer{c: c, fn: fn}
	c.timers = append(c.timers, t)
	return t
}

// advance moves the clock to t, running due timers in deadline order.
func (c *fakeClockCarrier) advance(t time.Duration) {
	for {
		var due *fakeTimer
		for _, tm := range c.timers {
			if tm.armed && tm.at <= t && (due == nil || tm.at < due.at) {
				due = tm
			}
		}
		if due == nil {
			break
		}
		c.now, due.armed = due.at, false
		due.fn()
	}
	c.now = t
}

// TestReliableStaleTimerArmsNoSecondChain: after an ACK restarts the
// clock, the first arm's deadline passes with no resend and a later send
// arms nothing more, so by 2rto the window has been resent exactly once.
// It kills a second retransmit chain, which both a timer per arm whose
// stale firing clears the armed flag and an ACK that fails to restart the
// clock produce.
func TestReliableStaleTimerArmsNoSecondChain(t *testing.T) {
	const rto = 10 * time.Microsecond
	c := &fakeClockCarrier{}
	s, err := core.NewReliableSender(c, 1, 2, wire.DefaultGeometry, 1, core.ReliableConfig{RTO: rto})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} { // one pair per packet: seq 0, 1
		if err := s.Send([]byte(k), 1); err != nil {
			t.Fatal(err)
		}
	}
	c.advance(rto / 2)
	s.HandleAck(1)                                 // releases seq 0 and restarts the clock at rto/2
	c.advance(rto)                                 // the first arm's deadline
	if err := s.Send([]byte("c"), 1); err != nil { // seq 2
		t.Fatal(err)
	}
	// Past the live deadline (3rto/2) and the would-be duplicate's (2rto),
	// short of the re-armed one (5rto/2): exactly one go-back-N fire.
	c.advance(2 * rto)
	if s.Stats.Retransmissions != 2 || c.sent != 5 {
		t.Fatalf("retransmissions %d, datagrams %d; want the 2-packet window resent once (2, 5)",
			s.Stats.Retransmissions, c.sent)
	}
}
