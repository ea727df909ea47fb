package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// poolWorld builds one source node (1) with two outgoing links (to sinks 2
// and 3) over a deliberately slow fabric, so queued bytes linger and pool
// occupancy is observable.
func poolWorld(t *testing.T, cfg PoolConfig) (*Network, *sink, *sink) {
	t.Helper()
	nw := New(1)
	b, c := &sink{}, &sink{}
	nw.AddNode(1, &sink{})
	nw.AddNode(2, b)
	nw.AddNode(3, c)
	slow := LinkConfig{BandwidthBps: 1_000_000, QueueBytes: 1 << 30} // 8 µs/byte
	nw.Connect(1, 2, slow)
	nw.Connect(1, 3, slow)
	if err := nw.SetNodePool(1, cfg); err != nil {
		t.Fatal(err)
	}
	return nw, b, c
}

// TestPoolSharedMemoryFills: with alpha high enough one port may borrow
// most of the shared memory — but never another port's carved floor. Both
// reserves are committed up front, so the borrowable memory is total minus
// both floors, and the idle port keeps its floor plus DT slack for itself.
func TestPoolSharedMemoryFills(t *testing.T) {
	nw, b, c := poolWorld(t, PoolConfig{TotalBytes: 1000, ReserveBytes: 100, Alpha: 4})
	for i := 0; i < 12; i++ {
		nw.Send(1, 0, make([]byte, 100))
	}
	// Both 100 B floors are committed at carve time, so port 0 starts with
	// free = 800 borrowable bytes. Each frame beyond its own floor commits
	// another 100 B; at 800 B queued free is down to 100 and the threshold
	// is 100 + 4×100 = 500 < 900 — the 9th frame is rejected. The old
	// threshold-exemption model admitted one more: that extra frame was
	// physically eating the idle port's floor.
	if st := nw.PortStats(1, 0); st.TxFrames != 8 || st.DropsPool != 4 || st.DropsFull != 0 {
		t.Fatalf("port 0 stats %+v", st)
	}
	// The idle port's floor held: its first frame lands inside the carved
	// reserve, and a second still fits the remaining borrowable 100 B.
	nw.Send(1, 1, make([]byte, 100))
	nw.Send(1, 1, make([]byte, 100))
	if st := nw.PortStats(1, 1); st.TxFrames != 2 || st.DropsPool != 0 {
		t.Fatalf("port 1 stats %+v", st)
	}
	ps, ok := nw.PoolStats(1)
	if !ok {
		t.Fatal("node 1 has no pool")
	}
	if ps.Used != 1000 || ps.Committed != 1000 || ps.HighWater != 1000 || ps.Drops != 4 {
		t.Fatalf("pool stats %+v", ps)
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(b.frames) != 8 || len(c.frames) != 2 {
		t.Fatalf("delivered %d/%d", len(b.frames), len(c.frames))
	}
	// Everything serialized: the memory drains back to the bare floors.
	if ps, _ := nw.PoolStats(1); ps.Used != 0 || ps.Committed != 200 || ps.HighWater != 1000 {
		t.Fatalf("post-run pool stats %+v", ps)
	}
}

// TestPoolReserveFloorHolds is the regression test for the reserve-floor
// bug: under the old model a reserve only exempted a port from the DT
// threshold, while the physical size > free check still applied — so an
// aggressor at high alpha could occupy the entire memory and a victim
// port's first frame, squarely inside its configured floor, was rejected.
// With hard-carved reserves the floor is physical: the victim inside its
// reserve is NEVER pool-rejected, no matter how aggressive the aggressor.
func TestPoolReserveFloorHolds(t *testing.T) {
	const (
		total   = 64 << 10
		reserve = 2 << 10
	)
	nw, b, c := poolWorld(t, PoolConfig{TotalBytes: total, ReserveBytes: reserve, Alpha: 64})
	// Aggressor: port 0 floods 1 KiB frames at an alpha so large the DT
	// threshold never binds. It may fill everything EXCEPT the victim's
	// carved 2 KiB floor: 2 KiB own floor + 60 KiB borrowable = 62 frames.
	for i := 0; i < 80; i++ {
		nw.Send(1, 0, make([]byte, 1024))
	}
	if st := nw.PortStats(1, 0); st.TxFrames != 62 || st.DropsPool != 18 {
		t.Fatalf("aggressor stats %+v", st)
	}
	// Victim: a single 1.5 KiB frame inside its untouched floor. The old
	// model rejected exactly this send (occupancy 64 KiB, free 0, size >
	// free); the carved floor admits it unconditionally.
	nw.Send(1, 1, make([]byte, 1536))
	if st := nw.PortStats(1, 1); st.TxFrames != 1 || st.DropsPool != 0 {
		t.Fatalf("victim inside its reserve was pool-rejected: %+v", st)
	}
	// A second victim frame exceeds the floor with zero borrowable memory
	// left — rejected by the victim's own exhausted allowance, which is the
	// only way an under-floor port can lose.
	nw.Send(1, 1, make([]byte, 1536))
	if st := nw.PortStats(1, 1); st.TxFrames != 1 || st.DropsPool != 1 {
		t.Fatalf("victim beyond its reserve: %+v", st)
	}
	ps, _ := nw.PoolStats(1)
	if ps.Committed != total || ps.Used != 62*1024+1536 {
		t.Fatalf("pool stats %+v", ps)
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(b.frames) != 62 || len(c.frames) != 1 {
		t.Fatalf("delivered %d/%d", len(b.frames), len(c.frames))
	}
}

// TestDTLimitGolden pins dtLimit's rounding: truncation toward zero, not
// rounding to nearest. Every recorded admission decision (the figure
// golden, the replay digests) depends on it, so the rounding mode is part
// of the determinism contract.
func TestDTLimitGolden(t *testing.T) {
	cases := []struct {
		alpha float64
		free  int
		want  int
	}{
		{0, 1 << 20, 0},
		{1, 1000, 1000},
		{0.5, 999, 499},  // 499.5 truncates down
		{0.5, 1001, 500}, // 500.5 truncates down too — not banker's rounding
		{1.5, 3, 4},      // 4.5 → 4
		{0.25, 7, 1},     // 1.75 → 1
		{0.7, 10, 7},
		{0.3, 10, 3},
		{0.1, 30, 3},
		{8, 300, 2400},
		{64, 1024, 65536},
		{2, 0, 0},
	}
	for _, c := range cases {
		if got := dtLimit(c.alpha, c.free); got != c.want {
			t.Errorf("dtLimit(%v, %d) = %d, want %d", c.alpha, c.free, got, c.want)
		}
	}
}

// TestPoolStaticPartition: alpha = 0 with reserve = total/ports degenerates
// into equal static partitioning — a port stops at its reserve even though
// the rest of the memory is idle.
func TestPoolStaticPartition(t *testing.T) {
	nw, _, _ := poolWorld(t, PoolConfig{TotalBytes: 1000, ReserveBytes: 500, Alpha: 0})
	for i := 0; i < 7; i++ {
		nw.Send(1, 0, make([]byte, 100))
	}
	if st := nw.PortStats(1, 0); st.TxFrames != 5 || st.DropsPool != 2 {
		t.Fatalf("static partition: port 0 stats %+v", st)
	}
	// The other port's reserve is untouched.
	nw.Send(1, 1, make([]byte, 100))
	if st := nw.PortStats(1, 1); st.TxFrames != 1 || st.DropsPool != 0 {
		t.Fatalf("static partition: port 1 stats %+v", st)
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestPoolDynamicThreshold pins the DT formula: beyond its reserve a port
// may hold at most alpha × free additional bytes, so a congested pool
// admits less.
func TestPoolDynamicThreshold(t *testing.T) {
	// Reserve 0, alpha 1: first 100 B frame sees free=1000, limit 1000 →
	// admitted. Occupancy 100 → free 900, limit 900; queued 100+100=200 ≤
	// 900 → admitted... the port asymptotically approaches alpha/(1+alpha)
	// of the memory: 500 for alpha 1.
	nw, _, _ := poolWorld(t, PoolConfig{TotalBytes: 1000, ReserveBytes: 0, Alpha: 1})
	sent := 0
	for i := 0; i < 20; i++ {
		nw.Send(1, 0, make([]byte, 100))
	}
	sent = int(nw.PortStats(1, 0).TxFrames)
	if sent != 5 {
		t.Fatalf("alpha=1 admitted %d × 100 B, want 5 (the DT fixed point)", sent)
	}
	// The second port still gets its own DT share of what is left.
	nw.Send(1, 1, make([]byte, 100))
	if st := nw.PortStats(1, 1); st.TxFrames != 1 {
		t.Fatalf("port 1 locked out below the threshold: %+v", st)
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestPoolDrainReadmits: occupancy falls as frames serialize, so a port
// rejected at t=0 is admitted after the backlog drains — the lazy-drain
// equivalence the private-queue model already guarantees.
func TestPoolDrainReadmits(t *testing.T) {
	nw, b, _ := poolWorld(t, PoolConfig{TotalBytes: 300, ReserveBytes: 0, Alpha: 8})
	for i := 0; i < 4; i++ {
		nw.Send(1, 0, make([]byte, 100)) // fourth rejected: memory holds 3
	}
	if st := nw.PortStats(1, 0); st.TxFrames != 3 || st.DropsPool != 1 {
		t.Fatalf("t=0 stats %+v", st)
	}
	// After the first frame serializes (800 µs at 1 Mb/s), memory is free.
	if err := nw.RunUntil(Duration(800 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 0, make([]byte, 100))
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	st := nw.PortStats(1, 0)
	if st.TxFrames != 4 || st.DropsPool != 1 {
		t.Fatalf("post-drain stats %+v; want the late frame admitted", st)
	}
	if len(b.frames) != 4 {
		t.Fatalf("delivered %d", len(b.frames))
	}
}

// TestPoolConfigValidation covers the configuration contract.
func TestPoolConfigValidation(t *testing.T) {
	nw := New(1)
	nw.AddNode(1, &sink{})
	nw.AddNode(2, &sink{})
	nw.Connect(1, 2, LinkConfig{})
	if err := nw.SetNodePool(1, PoolConfig{}); err == nil {
		t.Fatal("zero TotalBytes accepted")
	}
	if err := nw.SetNodePool(1, PoolConfig{TotalBytes: 100, ReserveBytes: 200}); err == nil {
		t.Fatal("reserve beyond total accepted")
	}
	if err := nw.SetNodePool(1, PoolConfig{TotalBytes: 100, Alpha: -1}); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if err := nw.SetNodePool(9, PoolConfig{TotalBytes: 100}); err == nil {
		t.Fatal("unknown node accepted")
	}
	if err := nw.SetNodePool(1, PoolConfig{TotalBytes: 100, ReserveBytes: 10,
		Classes: []ClassConfig{{ReserveBytes: 10}}}); err == nil {
		t.Fatal("Classes plus legacy ReserveBytes accepted")
	}
	if err := nw.SetNodePool(1, PoolConfig{TotalBytes: 100,
		Classes: []ClassConfig{{Alpha: -0.5}}}); err == nil {
		t.Fatal("negative per-class alpha accepted")
	}
	if err := nw.SetNodePool(1, PoolConfig{TotalBytes: 100,
		Classes: []ClassConfig{{ReserveBytes: 60}, {ReserveBytes: 60}}}); err == nil {
		t.Fatal("per-class reserves summing beyond total accepted")
	}
	if err := nw.SetNodePool(1, PoolConfig{TotalBytes: 100, Alpha: 1}); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetNodePool(1, PoolConfig{TotalBytes: 100, Alpha: 1}); err == nil {
		t.Fatal("duplicate pool accepted")
	}
	if _, ok := nw.PoolStats(2); ok {
		t.Fatal("poolless node reported a pool")
	}
}

// TestPoolBeforeConnect: links connected after the pool is attached join it.
func TestPoolBeforeConnect(t *testing.T) {
	nw := New(1)
	nw.AddNode(1, &sink{})
	nw.AddNode(2, &sink{})
	if err := nw.SetNodePool(1, PoolConfig{TotalBytes: 150, Alpha: 4}); err != nil {
		t.Fatal(err)
	}
	nw.Connect(1, 2, LinkConfig{BandwidthBps: 1_000_000, QueueBytes: 1 << 30})
	nw.Send(1, 0, make([]byte, 100))
	nw.Send(1, 0, make([]byte, 100)) // exceeds the 150 B memory
	if st := nw.PortStats(1, 0); st.TxFrames != 1 || st.DropsPool != 1 {
		t.Fatalf("stats %+v", st)
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestPoolOverCommitRejected: hard floors are physical, so the sum of every
// port's reserves may not exceed the memory. The check runs against the
// ports present at SetNodePool time; exactly-total is legal (pure static
// partitioning).
func TestPoolOverCommitRejected(t *testing.T) {
	mk := func() *Network {
		nw := New(1)
		nw.AddNode(1, &sink{})
		nw.AddNode(2, &sink{})
		nw.AddNode(3, &sink{})
		nw.Connect(1, 2, LinkConfig{})
		nw.Connect(1, 3, LinkConfig{})
		return nw
	}
	// 2 ports × 60 B floors = 120 B > 100 B memory: rejected even though a
	// single port's reserve is within range.
	if err := mk().SetNodePool(1, PoolConfig{TotalBytes: 100, ReserveBytes: 60}); err == nil {
		t.Fatal("over-committed per-port reserves accepted")
	}
	// 2 ports × (30+20) B class floors = 100 B: equality is the static
	// split and must be accepted.
	if err := mk().SetNodePool(1, PoolConfig{TotalBytes: 100,
		Classes: []ClassConfig{{ReserveBytes: 30}, {ReserveBytes: 20}}}); err != nil {
		t.Fatal(err)
	}
	// A port joining at Connect time re-checks the carve; over-committing
	// then is a configuration panic, like Connect's other misuses.
	nw := New(1)
	nw.AddNode(1, &sink{})
	nw.AddNode(2, &sink{})
	nw.AddNode(3, &sink{})
	if err := nw.SetNodePool(1, PoolConfig{TotalBytes: 100, ReserveBytes: 60}); err != nil {
		t.Fatal(err)
	}
	nw.Connect(1, 2, LinkConfig{}) // first port: 60 ≤ 100
	defer func() {
		if recover() == nil {
			t.Fatal("second port over-committing the carve did not panic")
		}
	}()
	nw.Connect(1, 3, LinkConfig{})
}

// TestPoolMultiClassIsolation: classes are the tenant boundary. An
// aggressor flooding class 1 on one port cannot push class 0 — even on the
// SAME port — out of its own carved floor, and drops are attributed to the
// class that overflowed.
func TestPoolMultiClassIsolation(t *testing.T) {
	nw, _, _ := poolWorld(t, PoolConfig{TotalBytes: 1000,
		Classes: []ClassConfig{{ReserveBytes: 100, Alpha: 0.5}, {ReserveBytes: 50, Alpha: 8}}})
	// Aggressor: class 1 on port 0, alpha 8. Floors commit 2×(100+50) = 300
	// up front, so it borrows from free = 700 beyond its own 50 B floor.
	for i := 0; i < 12; i++ {
		nw.SendClass(1, 0, 1, make([]byte, 100))
	}
	// 7 frames: 50 floor + 650 borrowed leaves free = 50; the 8th needs 100
	// borrowable. DT never binds at alpha 8.
	if st := nw.PortStats(1, 0); st.TxFrames != 7 || st.DropsPool != 5 {
		t.Fatalf("aggressor class-1 stats %+v", st)
	}
	// Victim: class 0 traffic on the same port and on the other port both
	// land inside their own 100 B class floors — admitted unconditionally.
	nw.SendClass(1, 0, 0, make([]byte, 80))
	nw.SendClass(1, 1, 0, make([]byte, 80))
	if st := nw.PortStats(1, 0); st.TxFrames != 8 {
		t.Fatalf("class 0 on the aggressor's port was rejected: %+v", st)
	}
	if st := nw.PortStats(1, 1); st.TxFrames != 1 || st.DropsPool != 0 {
		t.Fatalf("class 0 on the idle port was rejected: %+v", st)
	}
	ps, _ := nw.PoolStats(1)
	if len(ps.Classes) != 2 {
		t.Fatalf("pool stats %+v", ps)
	}
	if c0 := ps.Classes[0]; c0.Used != 160 || c0.Drops != 0 {
		t.Fatalf("class 0 stats %+v", c0)
	}
	if c1 := ps.Classes[1]; c1.Used != 700 || c1.Drops != 5 {
		t.Fatalf("class 1 stats %+v", c1)
	}
	if ps.Used != 860 || ps.Drops != 5 {
		t.Fatalf("pool stats %+v", ps)
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestPoolClassFolding: frames sent under a class the pool does not declare
// fold into class 0, so one tree can span pools with different class
// counts; negative classes fold the same way.
func TestPoolClassFolding(t *testing.T) {
	nw, b, _ := poolWorld(t, PoolConfig{TotalBytes: 1000, ReserveBytes: 100, Alpha: 4})
	nw.SendClass(1, 0, 7, make([]byte, 100))
	nw.SendClass(1, 0, -1, make([]byte, 100))
	ps, _ := nw.PoolStats(1)
	if len(ps.Classes) != 1 || ps.Classes[0].Used != 200 {
		t.Fatalf("out-of-range classes did not fold to class 0: %+v", ps)
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(b.frames) != 2 {
		t.Fatalf("delivered %d", len(b.frames))
	}
}

// TestPoolResetClassSymmetry: a crash (ResetPool) empties every class's
// occupancy and returns the commitment to the bare floors, symmetrically —
// no class inherits the dead boot's accounting. Cumulative statistics
// (high-water, drops) describe the run and survive.
func TestPoolResetClassSymmetry(t *testing.T) {
	nw, _, _ := poolWorld(t, PoolConfig{TotalBytes: 1000,
		Classes: []ClassConfig{{ReserveBytes: 100, Alpha: 8}, {ReserveBytes: 100, Alpha: 8}}})
	for i := 0; i < 4; i++ {
		nw.SendClass(1, 0, 0, make([]byte, 100))
		nw.SendClass(1, 1, 1, make([]byte, 100))
	}
	pre, _ := nw.PoolStats(1)
	if pre.Used != 800 || pre.Classes[0].Used != 400 || pre.Classes[1].Used != 400 {
		t.Fatalf("pre-crash pool stats %+v", pre)
	}
	nw.ResetPool(1)
	ps, _ := nw.PoolStats(1)
	if ps.Used != 0 || ps.Classes[0].Used != 0 || ps.Classes[1].Used != 0 {
		t.Fatalf("post-crash occupancy not symmetric: %+v", ps)
	}
	// Commitment back to the bare floors: 2 ports × 2 classes × 100 B.
	if ps.Committed != 400 {
		t.Fatalf("post-crash commitment %d, want bare floors 400", ps.Committed)
	}
	if ps.HighWater != pre.HighWater || ps.Classes[0].HighWater != pre.Classes[0].HighWater {
		t.Fatalf("high-water marks did not survive the crash: %+v vs %+v", ps, pre)
	}
	// The rebooted memory admits a full fresh load on both classes.
	for i := 0; i < 4; i++ {
		nw.SendClass(1, 0, 0, make([]byte, 100))
		nw.SendClass(1, 1, 1, make([]byte, 100))
	}
	if ps, _ := nw.PoolStats(1); ps.Used != 800 || ps.Drops != 0 {
		t.Fatalf("post-reboot pool stats %+v", ps)
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
}

// classChatter is the chatter determinism amplifier with class-tagged
// sends: the traffic class is derived from frame bytes, so multi-class
// pool admission decisions are woven through the random cascade. Classes
// run 0..2 against 2-class pools, exercising fold-to-0 as well.
type classChatter struct {
	nw  *Network
	id  NodeID
	rng *rand.Rand
	log []string
}

func (c *classChatter) Attach(nw *Network, id NodeID) {
	c.nw, c.id = nw, id
	c.rng = rand.New(rand.NewSource(int64(id)*0x9e3779b9 + 7))
}

func (c *classChatter) HandleFrame(inPort int, frame []byte) {
	var sum uint32
	for _, b := range frame {
		sum = sum*131 + uint32(b)
	}
	c.log = append(c.log, fmt.Sprintf("%d:%d:%d:%x", c.nw.Now(), inPort, len(frame), sum))
	if len(frame) < 2 || frame[0] == 0 {
		return
	}
	nports := c.nw.NumPorts(c.id)
	if nports == 0 {
		return
	}
	n := 1 + c.rng.Intn(2)
	for i := 0; i < n; i++ {
		nf := append([]byte(nil), frame...)
		nf[0]--
		nf[1+c.rng.Intn(len(nf)-1)] ^= byte(1 + c.rng.Intn(255))
		port := c.rng.Intn(nports)
		class := int(nf[1]) % 3
		if c.rng.Intn(4) == 0 {
			d := Time(1 + c.rng.Intn(3000))
			c.nw.Eng.After(d, func() { c.nw.SendClass(c.id, port, class, nf) })
		} else {
			c.nw.SendClass(c.id, port, class, nf)
		}
	}
}

// classWorld builds a random connected topology of classChatter nodes and
// attaches tight 2-class pools to every third node.
func classWorld(t *testing.T, seed int64, n int) (*Network, []*classChatter) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw := New(uint64(seed))
	nodes := make([]*classChatter, n)
	for i := range nodes {
		nodes[i] = &classChatter{}
		nw.AddNode(NodeID(i+1), nodes[i])
	}
	bandwidths := []int64{100_000_000, 1_000_000_000}
	props := []time.Duration{200 * time.Nanosecond, time.Microsecond}
	link := func(a, b NodeID) {
		nw.Connect(a, b, LinkConfig{
			BandwidthBps: bandwidths[rng.Intn(len(bandwidths))],
			Propagation:  props[rng.Intn(len(props))],
			QueueBytes:   64 << 10,
		})
	}
	for i := 1; i < n; i++ {
		link(NodeID(i+1), NodeID(rng.Intn(i)+1))
	}
	for e := 0; e < n/2; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			link(NodeID(a+1), NodeID(b+1))
		}
	}
	for i := 0; i < n; i += 3 {
		if err := nw.SetNodePool(NodeID(i+1), PoolConfig{
			TotalBytes: 512,
			Classes:    []ClassConfig{{ReserveBytes: 16, Alpha: 0.5}, {ReserveBytes: 8, Alpha: 0.25}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return nw, nodes
}

// classFingerprint renders everything the multi-class determinism contract
// covers: traces, port counters, and full per-class pool statistics.
func classFingerprint(t *testing.T, nw *Network, nodes []*classChatter, n int) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "now=%v processed=%d total=%+v\n", nw.Now(), nw.Processed(), nw.TotalStats())
	for _, c := range nodes {
		fmt.Fprintf(&b, "node %d:", c.id)
		for p := 0; p < nw.NumPorts(c.id); p++ {
			fmt.Fprintf(&b, " p%d=%+v", p, nw.PortStats(c.id, p))
		}
		fmt.Fprintf(&b, " log=%s\n", strings.Join(c.log, ","))
	}
	for i := 0; i < n; i += 3 {
		ps, ok := nw.PoolStats(NodeID(i + 1))
		if !ok {
			t.Fatalf("node %d lost its pool", i+1)
		}
		fmt.Fprintf(&b, "pool %d: %+v\n", i+1, ps)
	}
	return b.String()
}

// TestPoolMultiClassReplay: per-class admission, occupancy and drop
// attribution are part of the replay contract — the fingerprint, full
// per-class pool statistics included, matches its recorded digest.
func TestPoolMultiClassReplay(t *testing.T) {
	const n = 12
	injectClass := func(nw *Network, nodes []*classChatter, seed int64) {
		rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
		for _, c := range nodes {
			for k := 0; k < 1+rng.Intn(3); k++ {
				frame := make([]byte, 2+rng.Intn(180))
				rng.Read(frame)
				frame[0] = byte(3 + rng.Intn(4))
				nw.SendClass(c.id, rng.Intn(nw.NumPorts(c.id)), int(frame[1])%3, frame)
			}
		}
	}
	for seed, want := range map[int64]string{
		7:  "10313 bytes 0x8d5e266a30609705",
		31: "7399 bytes 0x84815b6c5fa5bb32",
	} {
		nw, nodes := classWorld(t, seed, n)
		injectClass(nw, nodes, seed)
		if err := nw.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		fp := classFingerprint(t, nw, nodes, n)
		if !strings.Contains(fp, "Drops:") {
			t.Fatalf("fingerprint lost pool stats:\n%s", fp)
		}
		checkDigest(t, fmt.Sprintf("seed %d", seed), fp, want)
	}
}

// TestPoolReplay: pooled admission is part of the replay contract — random
// chatter workloads over fabrics where some nodes carry tight shared pools
// fingerprint to their recorded digests, pool statistics included.
func TestPoolReplay(t *testing.T) {
	for seed, want := range map[int64]string{
		11: "10545 bytes 0xad1f6e606c108801",
		23: "8200 bytes 0x522f57e17c393103",
	} {
		nw, nodes := chatterWorld(t, seed, 12)
		// Give a deterministic subset of nodes tight shared pools so DT
		// rejections actually happen under the chatter load.
		for i := 0; i < 12; i += 3 {
			if err := nw.SetNodePool(NodeID(i+1), PoolConfig{
				TotalBytes:   512,
				ReserveBytes: 64,
				Alpha:        0.5,
			}); err != nil {
				t.Fatal(err)
			}
		}
		inject(nw, nodes, seed)
		if err := nw.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		out := fingerprint(nw, nodes)
		var poolDrops uint64
		for i := 0; i < 12; i += 3 {
			ps, ok := nw.PoolStats(NodeID(i + 1))
			if !ok {
				t.Fatalf("node %d lost its pool", i+1)
			}
			poolDrops += ps.Drops
			out += fmt.Sprintf("pool %d: %+v\n", i+1, ps)
		}
		if poolDrops == 0 {
			t.Fatalf("seed %d: workload produced no pool drops; fingerprint:\n%s", seed, out)
		}
		checkDigest(t, fmt.Sprintf("seed %d", seed), out, want)
	}
}

// BenchmarkBurstAdmission guards the O(1)-amortized admission path: a
// standing backlog of thousands of inflight frames (the big-incast regime)
// must not make each further admission scan or shift the records.
func BenchmarkBurstAdmission(b *testing.B) {
	nw := New(1)
	nw.AddNode(1, &sink{})
	nw.AddNode(2, &sink{})
	nw.Connect(1, 2, LinkConfig{
		BandwidthBps: 1_000_000, // slow: backlog only grows during the burst
		QueueBytes:   1 << 62,   // never tail-drop: admission cost only
		Propagation:  time.Hour, // deliveries stay far in the future
	})
	frame := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Send(1, 0, frame)
	}
}
