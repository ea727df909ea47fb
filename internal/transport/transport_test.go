package transport

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/wire"
)

// forwarder is a minimal switch used by transport tests: it forwards every
// frame based on destination MAC node ID via a static port map.
type forwarder struct {
	nw    *netsim.Network
	id    netsim.NodeID
	route map[uint32]int
	drop  func(frame []byte) bool // optional: true discards the frame
}

func (f *forwarder) Attach(nw *netsim.Network, id netsim.NodeID) { f.nw, f.id = nw, id }
func (f *forwarder) HandleFrame(_ int, frame []byte) {
	var eth wire.Ethernet
	if _, err := eth.DecodeFrom(frame); err != nil {
		return
	}
	if f.drop != nil && f.drop(frame) {
		return
	}
	if port, ok := f.route[eth.Dst.NodeID()]; ok {
		f.nw.Send(f.id, port, frame)
	}
}

// rig is two hosts joined by one switch.
type rig struct {
	nw   *netsim.Network
	sw   *forwarder
	a, b *Host
}

func newRig(t *testing.T, cfg netsim.LinkConfig) *rig {
	t.Helper()
	nw := netsim.New(7)
	sw := &forwarder{route: map[uint32]int{}}
	a, b := NewHost(), NewHost()
	nw.AddNode(uint32ID(topology.SwitchBase), sw)
	nw.AddNode(1, a)
	nw.AddNode(2, b)
	pa, _ := nw.Connect(netsim.NodeID(topology.SwitchBase), 1, cfg)
	pb, _ := nw.Connect(netsim.NodeID(topology.SwitchBase), 2, cfg)
	sw.route[1] = pa
	sw.route[2] = pb
	return &rig{nw: nw, sw: sw, a: a, b: b}
}

func uint32ID(id netsim.NodeID) netsim.NodeID { return id }

func TestUDPDelivery(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	var got []byte
	var gotSrc wire.IPv4Addr
	var gotPort uint16
	r.b.HandleUDP(5000, func(src wire.IPv4Addr, srcPort uint16, payload []byte) {
		got = append([]byte(nil), payload...)
		gotSrc, gotPort = src, srcPort
	})
	r.a.SendUDP(2, 1234, 5000, []byte("ping"))
	if err := r.nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" || gotSrc.NodeID() != 1 || gotPort != 1234 {
		t.Fatalf("got %q from %v:%d", got, gotSrc, gotPort)
	}
	if r.b.Stats.UDPRx != 1 || r.a.Stats.FramesTx != 1 {
		t.Fatalf("stats a=%+v b=%+v", r.a.Stats, r.b.Stats)
	}
}

func TestUDPUnregisteredPortDropped(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	r.a.SendUDP(2, 1, 9999, []byte("x"))
	if err := r.nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if r.b.Stats.UDPRx != 1 { // counted at NIC, just no handler
		t.Fatalf("stats %+v", r.b.Stats)
	}
}

func TestUDPHandlerDeregister(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	calls := 0
	r.b.HandleUDP(5000, func(wire.IPv4Addr, uint16, []byte) { calls++ })
	r.b.HandleUDP(5000, nil)
	r.a.SendUDP(2, 1, 5000, []byte("x"))
	if err := r.nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatal("handler ran after deregistration")
	}
}

// transfer pushes total bytes from a to b over tcplite and returns b's
// received bytes, the server conn, and the client conn.
func transfer(t *testing.T, r *rig, payload []byte, mss int, maxEvents uint64) ([]byte, *Conn, *Conn) {
	t.Helper()
	var rx bytes.Buffer
	done := false
	var serverConn *Conn
	r.b.ListenTCP(8080, func(c *Conn) {
		serverConn = c
		c.OnData = func(p []byte) { rx.Write(p) }
		c.OnClose = func() {
			done = true
			c.Close() // close our half too, like a real server would
		}
	})
	client := r.a.DialTCP(2, 8080, func(c *Conn) {})
	if mss > 0 {
		client.SetMSS(mss)
	}
	client.Write(payload)
	client.Close()
	if err := r.nw.Run(maxEvents); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("receiver never saw EOF")
	}
	return rx.Bytes(), serverConn, client
}

func TestTCPBasicTransfer(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	payload := make([]byte, 100_000)
	rng := rand.New(rand.NewSource(3))
	rng.Read(payload)
	got, srv, cli := transfer(t, r, payload, 0, 0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("corrupted transfer: got %d bytes want %d", len(got), len(payload))
	}
	if cli.Stats.Retrans != 0 {
		t.Fatalf("retransmissions on a clean link: %d", cli.Stats.Retrans)
	}
	// Segment count: ceil(100000/1460) = 69 data segments.
	if srv.Stats.DataSegsRx != 69 {
		t.Fatalf("data segs %d want 69", srv.Stats.DataSegsRx)
	}
	if cli.State() != StateClosed {
		t.Fatalf("client state %v", cli.State())
	}
}

func TestTCPEmptyTransferJustClose(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	got, _, _ := transfer(t, r, nil, 0, 0)
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestTCPSmallMSS(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	payload := []byte("hello world, this spans several tiny segments")
	got, srv, _ := transfer(t, r, payload, 8, 0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
	want := (len(payload) + 7) / 8
	if int(srv.Stats.DataSegsRx) != want {
		t.Fatalf("segments %d want %d", srv.Stats.DataSegsRx, want)
	}
}

func TestTCPLossRecovery(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05, 0.2} {
		r := newRig(t, netsim.LinkConfig{LossProb: loss})
		payload := make([]byte, 50_000)
		rand.New(rand.NewSource(11)).Read(payload)
		got, _, cli := transfer(t, r, payload, 0, 5_000_000)
		if !bytes.Equal(got, payload) {
			t.Fatalf("loss=%v: corrupted transfer (%d vs %d bytes)", loss, len(got), len(payload))
		}
		if loss >= 0.05 && cli.Stats.Retrans == 0 {
			t.Fatalf("loss=%v: expected retransmissions", loss)
		}
	}
}

// Property: any payload arrives intact, in order, for random sizes and MSS.
func TestTCPDeliveryProperty(t *testing.T) {
	f := func(seed int64, sizeRaw uint16, mssRaw uint8) bool {
		size := int(sizeRaw) % 20000
		mss := 64 + int(mssRaw)*8
		r := newRig(t, netsim.LinkConfig{})
		payload := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(payload)
		got, _, _ := transfer(t, r, payload, mss, 2_000_000)
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPMultipleWrites(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	var rx bytes.Buffer
	closed := false
	r.b.ListenTCP(80, func(c *Conn) {
		c.OnData = func(p []byte) { rx.Write(p) }
		c.OnClose = func() { closed = true }
	})
	c := r.a.DialTCP(2, 80, nil)
	var want bytes.Buffer
	for i := 0; i < 50; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 997)
		want.Write(chunk)
		c.Write(chunk)
	}
	c.Close()
	if err := r.nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if !closed || !bytes.Equal(rx.Bytes(), want.Bytes()) {
		t.Fatalf("closed=%v rx=%d want=%d", closed, rx.Len(), want.Len())
	}
}

func TestTCPWriteAfterClosePanics(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	c := r.a.DialTCP(2, 80, nil)
	c.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on write-after-close")
		}
	}()
	c.Write([]byte("x"))
}

func TestTCPDialToNonListenerTimesOutQuietly(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	connected := false
	c := r.a.DialTCP(2, 4242, func(*Conn) { connected = true })
	// Bound the run: SYN retransmits forever against a silent peer.
	if err := r.nw.Run(10_000); err == nil {
		t.Log("run drained (engine may have idled)")
	}
	if connected {
		t.Fatal("connected to nothing")
	}
	if c.State() != StateSynSent {
		t.Fatalf("state %v", c.State())
	}
}

func TestTCPBidirectional(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	var fromA, fromB bytes.Buffer
	bClosed := false
	r.b.ListenTCP(80, func(c *Conn) {
		c.OnData = func(p []byte) { fromA.Write(p) }
		c.OnClose = func() {
			// Echo back then close our side.
			c.Write([]byte("response-from-b"))
			c.Close()
			bClosed = true
		}
	})
	var cli *Conn
	cli = r.a.DialTCP(2, 80, func(c *Conn) {
		c.Write([]byte("request-from-a"))
		c.Close()
	})
	cli.OnData = func(p []byte) { fromB.Write(p) }
	if err := r.nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if fromA.String() != "request-from-a" {
		t.Fatalf("b got %q", fromA.String())
	}
	if fromB.String() != "response-from-b" {
		t.Fatalf("a got %q", fromB.String())
	}
	if !bClosed {
		t.Fatal("b never saw EOF")
	}
}

func TestTCPSegmentCountsMatchMSSMath(t *testing.T) {
	// The Figure-3 TCP baseline depends on data segments ~= bytes/MSS.
	r := newRig(t, netsim.LinkConfig{})
	const size = 146_000 // 100 segments at MSS 1460
	payload := make([]byte, size)
	got, srv, cli := transfer(t, r, payload, 0, 0)
	if len(got) != size {
		t.Fatalf("len %d", len(got))
	}
	if srv.Stats.DataSegsRx != 100 {
		t.Fatalf("segs %d", srv.Stats.DataSegsRx)
	}
	if cli.Stats.BytesTx != size {
		t.Fatalf("bytes tx %d", cli.Stats.BytesTx)
	}
	if srv.Stats.BytesRx != size {
		t.Fatalf("bytes rx %d", srv.Stats.BytesRx)
	}
}

func TestTCPSlowLinkBackpressure(t *testing.T) {
	// A 10 Mb/s link with the default window: transfer must still complete.
	r := newRig(t, netsim.LinkConfig{
		BandwidthBps: 10_000_000,
		Propagation:  50 * time.Microsecond,
	})
	payload := make([]byte, 200_000)
	got, _, cli := transfer(t, r, payload, 0, 10_000_000)
	if len(got) != len(payload) {
		t.Fatalf("len %d", len(got))
	}
	// With 64 KB window and ~160 ms of serialization, some RTO-driven
	// retransmission is tolerable but the stream must not explode.
	if cli.Stats.Retrans > 200 {
		t.Fatalf("excessive retransmissions: %d", cli.Stats.Retrans)
	}
}

// TestTCPStaleTimerArmsNoSecondChain: a retransmit timer superseded by an
// ACK fires dead and must not let the next send arm a second live chain —
// two chains would both go back N every RTO. The client sends segments
// 'a' and 'b' ('b' is lost until late), the ACK of 'a' restarts the clock,
// the first arm's stale timer fires, and then 'c' is sent: by the time the
// would-be duplicate chain expires, the window is resent exactly once.
// Kills the mutant that clears the armed flag before the staleness check.
func TestTCPStaleTimerArmsNoSecondChain(t *testing.T) {
	const (
		mss = 100
		rto = 100 * time.Microsecond
	)
	r := newRig(t, netsim.LinkConfig{})
	r.sw.drop = func(frame []byte) bool {
		var (
			eth wire.Ethernet
			ip  wire.IPv4
			seg wire.TCPLite
		)
		p, err := eth.DecodeFrom(frame)
		if err == nil {
			p, err = ip.DecodeFrom(p)
		}
		if err == nil {
			p, err = seg.DecodeFrom(p)
		}
		return err == nil && len(p) > 0 && p[0] == 'b' && r.nw.Now() < netsim.Duration(3*rto)
	}
	r.b.ListenTCP(8080, func(*Conn) {})
	client := r.a.DialTCP(2, 8080, func(*Conn) {})
	client.SetMSS(mss)
	client.SetRTO(rto)
	client.Write(append(bytes.Repeat([]byte("a"), mss), bytes.Repeat([]byte("b"), mss)...))

	// The handshake takes about one 4.5 µs round trip, so 'a' and 'b' leave
	// (arming the clock) near 4.5 µs and the ACK of 'a' re-arms near 9 µs.
	// 106 µs lies between the stale deadline and the live one.
	r.nw.RunUntil(netsim.Duration(rto + 6*time.Microsecond))
	if client.Stats.Retrans != 0 || client.Stats.DataSegsTx != 2 {
		t.Fatalf("before 'c': %+v, want 2 data segments and no retransmission", client.Stats)
	}
	client.Write(bytes.Repeat([]byte("c"), mss))
	// Past the live deadline (~109 µs) and a duplicate chain's (~206 µs),
	// short of the re-armed one (~209 µs).
	r.nw.RunUntil(netsim.Duration(2*rto + 7*time.Microsecond))
	if client.Stats.Retrans != 2 {
		t.Fatalf("retransmissions %d; want the 2-segment window resent once", client.Stats.Retrans)
	}
}
