package netsim

import "testing"

// lossPattern sends n frames out of (from, port) and records each one's
// injected-loss decision: 'x' dropped, '.' accepted.
func lossPattern(nw *Network, from NodeID, port, n int) string {
	out := make([]byte, n)
	for i := range out {
		before := nw.PortStats(from, port).DropsLoss
		nw.Send(from, port, make([]byte, 64))
		out[i] = '.'
		if nw.PortStats(from, port).DropsLoss != before {
			out[i] = 'x'
		}
	}
	return string(out)
}

// TestLossStreamPinned pins every half-link's drop decisions at a fixed
// seed to the sequences recorded before the loss RNG became lazy: both
// directions and a parallel link (distinct port salts) must keep drawing
// the exact stream they always drew.
func TestLossStreamPinned(t *testing.T) {
	nw := New(42)
	nw.AddNode(1, &sink{})
	nw.AddNode(2, &sink{})
	cfg := LinkConfig{LossProb: 0.3}
	nw.Connect(1, 2, cfg)
	nw.Connect(1, 2, cfg) // parallel link: ports 1/1
	golden := []struct {
		from NodeID
		port int
		want string
	}{
		{1, 0, ".x....x..x.xxx...x..xx...x......x.xx.x..x........x...........x.."},
		{2, 0, "xxx.xxx....x..x..x.x...xx........xx.......x..x......x....x.x...."},
		{1, 1, "......x.....x..xxx..x..x.........xxx.x...x...x...x..x...x......x"},
		{2, 1, "..x..x.x.x....x...x...........x.....x...x.......x.....x........."},
	}
	for _, g := range golden {
		if got := lossPattern(nw, g.from, g.port, 64); got != g.want {
			t.Errorf("node %d port %d drops\n got %s\nwant %s", g.from, g.port, got, g.want)
		}
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestConnectLossFreeNoRNG: a loss-free link never draws from its loss
// stream, so Connect must not build one. Connecting a parallel link costs
// two half-links and two ports (slice growth amortizes away); each eagerly
// seeded math/rand stream would add a source and a Rand per half-link.
func TestConnectLossFreeNoRNG(t *testing.T) {
	nw := New(1)
	nw.AddNode(1, &sink{})
	nw.AddNode(2, &sink{})
	if allocs := testing.AllocsPerRun(100, func() { nw.Connect(1, 2, LinkConfig{}) }); allocs > 4 {
		t.Fatalf("Connect made %.0f allocations per loss-free link, want <= 4", allocs)
	}
	for _, hl := range nw.half {
		if hl.rng != nil {
			t.Fatal("loss-free half-link holds a loss RNG")
		}
	}
}
