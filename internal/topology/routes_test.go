package topology

import (
	"testing"

	"github.com/daiet/daiet/internal/netsim"
)

// irregularPlan is a hand-built fabric that exercises every corner of the
// dense next-hop query: multi-homed hosts (two sharing one attachment set,
// one with its own), a parallel switch link (a duplicated ECMP candidate),
// host-to-host links (direct delivery, never transit), a switch island,
// and a host with no links at all.
func irregularPlan() *Plan {
	p := &Plan{Name: "irregular"}
	s := func(i int) netsim.NodeID { return SwitchBase + netsim.NodeID(i) }
	h := func(i int) netsim.NodeID { return HostBase + netsim.NodeID(i) }
	for i := 0; i < 6; i++ {
		p.Switches = append(p.Switches, s(i))
	}
	for i := 0; i < 10; i++ {
		p.Hosts = append(p.Hosts, h(i))
	}
	link := func(a, b netsim.NodeID) { p.Links = append(p.Links, Link{A: a, B: b}) }
	// Ring s0-s1-s2-s3-s0 with a chord and a doubled s1-s2 link.
	link(s(0), s(1))
	link(s(1), s(2))
	link(s(2), s(3))
	link(s(3), s(0))
	link(s(0), s(2))
	link(s(1), s(2))
	// s4-s5 island with one host.
	link(s(4), s(5))
	link(h(8), s(5))
	link(h(0), s(0)) // h0, h1: multi-homed on {s0, s2}
	link(h(0), s(2))
	link(h(1), s(2))
	link(h(1), s(0))
	link(h(2), s(1))
	link(h(3), s(3))
	link(h(4), s(1)) // h4: multi-homed on {s1, s3}, wired to h3 as well
	link(h(4), s(3))
	link(h(3), h(4))
	link(h(5), h(2)) // h5 hangs off h2 only: reachable from h2 alone
	link(h(6), s(4))
	// h7 and h9 stay unlinked.
	return p
}

// TestNextHopMatchesMapBFS: the dense empty-avoid query must pick exactly
// the next hop the avoid-set map BFS picks, for every (from, dst) pair —
// including from == dst, unreachable pairs and IDs outside the fabric.
// The reference forces the map path with an avoid set naming an absent
// node.
func TestNextHopMatchesMapBFS(t *testing.T) {
	cfg := netsim.LinkConfig{}
	ft, err := FatTree(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*Plan{LeafSpine(4, 3, 6, cfg), ft, SingleSwitch(36, cfg), irregularPlan()}
	absent := SwitchBase + 0xffff
	forceMap := &Avoid{Nodes: map[netsim.NodeID]bool{absent: true}}
	for _, p := range plans {
		f := realize(t, p)
		nodes := append(append([]netsim.NodeID{absent}, p.Switches...), p.Hosts...)
		unreachable := 0
		for _, dst := range nodes {
			ref := f.NextHopsAvoiding(dst, forceMap)
			for _, from := range nodes {
				want, wantOK := ref[from]
				got, ok := f.NextHop(from, dst)
				if ok != wantOK || got != want {
					t.Fatalf("%s: NextHop(%d, %d) = %d,%v; map BFS %d,%v",
						p.Name, from, dst, got, ok, want, wantOK)
				}
				if !ok {
					unreachable++
				}
			}
			if dense := f.NextHopsAvoiding(dst, nil); len(dense) != len(ref) {
				t.Fatalf("%s: empty-avoid map toward %d has %d entries, map BFS %d",
					p.Name, dst, len(dense), len(ref))
			}
		}
		if unreachable == 0 {
			t.Fatalf("%s: no unreachable pair exercised", p.Name)
		}
	}
}

// TestIrregularPlanRoutes pins the corner cases the equivalence test runs
// through on the irregular plan, so a reference that drifted with the
// query could not hide them.
func TestIrregularPlanRoutes(t *testing.T) {
	p := irregularPlan()
	f := realize(t, p)
	s := func(i int) netsim.NodeID { return SwitchBase + netsim.NodeID(i) }
	h := func(i int) netsim.NodeID { return HostBase + netsim.NodeID(i) }
	for _, c := range []struct {
		from, dst netsim.NodeID
		want      netsim.NodeID // 0: unreachable
	}{
		{h(3), h(4), h(4)}, // host-to-host link: direct delivery
		{h(2), h(5), h(5)},
		{s(1), h(5), 0}, // h5 is reachable only from h2: hosts never transit
		{h(0), h(8), 0}, // across the island
		{s(4), h(8), s(5)},
		{h(7), h(0), 0}, // unlinked host
		{h(0), h(7), 0},
	} {
		got, ok := f.NextHop(c.from, c.dst)
		if ok != (c.want != 0) || got != c.want {
			t.Fatalf("NextHop(%d, %d) = %d,%v; want %d", c.from, c.dst, got, ok, c.want)
		}
	}
	// s1 reaches h0 through either of h0's attachments (the doubled s1-s2
	// link makes s2 a duplicated candidate).
	if got, ok := f.NextHop(s(1), h(0)); !ok || (got != s(0) && got != s(2)) {
		t.Fatalf("NextHop(s1, h0) = %d,%v; want s0 or s2", got, ok)
	}
	if path := f.Path(h(2), h(4)); len(path) != 3 || path[1] != s(1) {
		t.Fatalf("Path(h2, h4) = %v, want via s1", path)
	}
}
