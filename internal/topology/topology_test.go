package topology

import (
	"fmt"
	"testing"

	"github.com/daiet/daiet/internal/netsim"
)

// nopNode satisfies netsim.Node for structural tests.
type nopNode struct{}

func (nopNode) Attach(*netsim.Network, netsim.NodeID) {}
func (nopNode) HandleFrame(int, []byte)               {}

func realize(t *testing.T, p *Plan) *Fabric {
	t.Helper()
	nw := netsim.New(1)
	mk := func(netsim.NodeID) netsim.Node { return nopNode{} }
	return p.Realize(nw, mk, mk)
}

func TestSingleSwitchShape(t *testing.T) {
	p := SingleSwitch(4, netsim.LinkConfig{})
	if len(p.Hosts) != 4 || len(p.Switches) != 1 || len(p.Links) != 4 {
		t.Fatalf("shape: %d hosts %d switches %d links", len(p.Hosts), len(p.Switches), len(p.Links))
	}
	f := realize(t, p)
	sw := p.Switches[0]
	if !IsSwitchID(sw) || IsSwitchID(p.Hosts[0]) {
		t.Fatal("ID ranges wrong")
	}
	for _, h := range p.Hosts {
		path := f.Path(h, p.Hosts[0])
		if h == p.Hosts[0] {
			if len(path) != 1 {
				t.Fatalf("self path %v", path)
			}
			continue
		}
		if len(path) != 3 || path[1] != sw {
			t.Fatalf("path %v", path)
		}
	}
}

func TestLeafSpineShapeAndPaths(t *testing.T) {
	p := LeafSpine(3, 2, 4, netsim.LinkConfig{})
	if len(p.Hosts) != 12 || len(p.Switches) != 5 {
		t.Fatalf("shape: %d hosts %d switches", len(p.Hosts), len(p.Switches))
	}
	// links: 12 host links + 3*2 mesh links
	if len(p.Links) != 18 {
		t.Fatalf("links %d", len(p.Links))
	}
	f := realize(t, p)
	// Same-leaf hosts: 2 hops (h-leaf-h).
	same := f.Path(p.Hosts[0], p.Hosts[1])
	if len(same) != 3 {
		t.Fatalf("same-leaf path %v", same)
	}
	// Cross-leaf: h-leaf-spine-leaf-h = 5 nodes.
	cross := f.Path(p.Hosts[0], p.Hosts[11])
	if len(cross) != 5 {
		t.Fatalf("cross-leaf path %v", cross)
	}
	for _, mid := range cross[1 : len(cross)-1] {
		if !IsSwitchID(mid) {
			t.Fatalf("host transits traffic in %v", cross)
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	p, err := FatTree(4, netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hosts) != 16 {
		t.Fatalf("hosts %d want 16", len(p.Hosts))
	}
	if len(p.Switches) != 20 {
		t.Fatalf("switches %d want 20", len(p.Switches))
	}
	// k=4: 16 host links + 8 edges*2 agg links... total = 16 + (pods 4 * (2 aggs * (2 core + 2 edge))) = 16+32 = 48
	if len(p.Links) != 48 {
		t.Fatalf("links %d want 48", len(p.Links))
	}
	if _, err := FatTree(3, netsim.LinkConfig{}); err == nil {
		t.Fatal("odd k must fail")
	}
	if _, err := FatTree(0, netsim.LinkConfig{}); err == nil {
		t.Fatal("zero k must fail")
	}
}

func TestFatTreeAllPairsReachable(t *testing.T) {
	p, err := FatTree(4, netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f := realize(t, p)
	for _, a := range p.Hosts {
		for _, b := range p.Hosts {
			path := f.Path(a, b)
			if path == nil {
				t.Fatalf("no path %d->%d", a, b)
			}
			if path[0] != a || path[len(path)-1] != b {
				t.Fatalf("endpoints wrong: %v", path)
			}
			// No host transit.
			for _, mid := range path[1:max(1, len(path)-1)] {
				if mid != b && !IsSwitchID(mid) {
					t.Fatalf("host transit in %v", path)
				}
			}
			// Fat-tree diameter for hosts: h-e-a-c-a-e-h = 7 nodes max.
			if len(path) > 7 {
				t.Fatalf("path too long: %v", path)
			}
		}
	}
}

func TestNextHopConsistentWithPath(t *testing.T) {
	p := LeafSpine(2, 2, 2, netsim.LinkConfig{})
	f := realize(t, p)
	src, dst := p.Hosts[0], p.Hosts[3]
	path := f.Path(src, dst)
	for i := 0; i < len(path)-1; i++ {
		nh, ok := f.NextHop(path[i], dst)
		if !ok || nh != path[i+1] {
			t.Fatalf("NextHop(%d,%d)=%d,%v; path %v", path[i], dst, nh, ok, path)
		}
	}
	if nh, ok := f.NextHop(dst, dst); !ok || nh != dst {
		t.Fatal("self next-hop")
	}
}

func TestPortToMatchesAdjacency(t *testing.T) {
	p := SingleSwitch(3, netsim.LinkConfig{})
	f := realize(t, p)
	sw := p.Switches[0]
	for i, h := range p.Hosts {
		port := f.PortTo(sw, h)
		if port != i {
			t.Fatalf("PortTo(sw,%d)=%d want %d", h, port, i)
		}
		if f.PortTo(h, sw) != 0 {
			t.Fatal("host uplink must be port 0")
		}
	}
	if f.PortTo(p.Hosts[0], p.Hosts[1]) != -1 {
		t.Fatal("unconnected pair must be -1")
	}
}

func TestUnreachableReturnsNil(t *testing.T) {
	// Two disjoint single-switch islands.
	nw := netsim.New(1)
	mk := func(netsim.NodeID) netsim.Node { return nopNode{} }
	p := SingleSwitch(2, netsim.LinkConfig{})
	f := p.Realize(nw, mk, mk)
	// Add an isolated node manually.
	iso := netsim.NodeID(500)
	nw.AddNode(iso, nopNode{})
	if f.Path(p.Hosts[0], iso) != nil {
		t.Fatal("want nil path to isolated node")
	}
	if _, ok := f.NextHop(p.Hosts[0], iso); ok {
		t.Fatal("want unreachable")
	}
}

func TestHostsSorted(t *testing.T) {
	p := LeafSpine(2, 1, 3, netsim.LinkConfig{})
	f := realize(t, p)
	hs := f.HostsSorted()
	for i := 1; i < len(hs); i++ {
		if hs[i-1] >= hs[i] {
			t.Fatalf("not sorted: %v", hs)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestECMPSpreadsDestinationsAcrossSpines(t *testing.T) {
	// 2 leaves, 4 spines, several hosts: next hops toward different
	// destination hosts on the far leaf should not all use one spine.
	p := LeafSpine(2, 4, 8, netsim.LinkConfig{})
	f := realize(t, p)
	leaf0 := p.Switches[0]
	spines := map[netsim.NodeID]bool{}
	for _, dst := range p.Hosts[8:] { // hosts on leaf 1
		nh, ok := f.NextHop(leaf0, dst)
		if !ok {
			t.Fatalf("no next hop to %d", dst)
		}
		if !IsSwitchID(nh) {
			t.Fatalf("next hop %d is not a switch", nh)
		}
		spines[nh] = true
	}
	if len(spines) < 2 {
		t.Fatalf("all 8 destinations use %d spine(s); ECMP not spreading", len(spines))
	}
}

func TestECMPStillLoopFreePerDestination(t *testing.T) {
	// Per destination, the chosen next hops must still form a tree: walk
	// from every node and ensure the root is reached without cycles.
	p := LeafSpine(3, 3, 4, netsim.LinkConfig{})
	f := realize(t, p)
	for _, dst := range p.Hosts {
		for _, src := range p.Hosts {
			if src == dst {
				continue
			}
			seen := map[netsim.NodeID]bool{}
			cur := src
			for cur != dst {
				if seen[cur] {
					t.Fatalf("loop toward %d at %d", dst, cur)
				}
				seen[cur] = true
				nh, ok := f.NextHop(cur, dst)
				if !ok {
					t.Fatalf("stuck at %d toward %d", cur, dst)
				}
				cur = nh
			}
		}
	}
}

// TestPathAvoiding: failover path queries route around dead switches and
// links, and report unreachability when nothing survives.
func TestPathAvoiding(t *testing.T) {
	p := LeafSpine(2, 2, 2, netsim.LinkConfig{})
	f := realize(t, p)
	src, dst := p.Hosts[0], p.Hosts[3] // different racks: must cross a spine
	base := f.Path(src, dst)
	if base == nil || len(base) != 5 {
		t.Fatalf("base path %v", base)
	}
	spineOnPath := base[2]
	if !IsSwitchID(spineOnPath) {
		t.Fatalf("mid node %d not a switch", spineOnPath)
	}

	avoid := &Avoid{Nodes: map[netsim.NodeID]bool{spineOnPath: true}}
	alt := f.PathAvoiding(src, dst, avoid)
	if alt == nil {
		t.Fatal("no failover path around one dead spine")
	}
	for _, n := range alt {
		if n == spineOnPath {
			t.Fatalf("avoided node %d on path %v", spineOnPath, alt)
		}
	}

	// Killing both spines disconnects the racks.
	spines := map[netsim.NodeID]bool{SwitchBase + 2: true, SwitchBase + 3: true}
	if got := f.PathAvoiding(src, dst, &Avoid{Nodes: spines}); got != nil {
		t.Fatalf("path %v through dead spines", got)
	}

	// Downing the host's uplink orphans it.
	leaf := SwitchBase
	la := &Avoid{Links: map[[2]netsim.NodeID]bool{LinkKey(src, leaf): true}}
	if got := f.PathAvoiding(src, dst, la); got != nil {
		t.Fatalf("path %v through dead uplink", got)
	}
	// The memoized no-avoid path is untouched by avoid queries.
	if got := f.Path(src, dst); fmt.Sprint(got) != fmt.Sprint(base) {
		t.Fatalf("memoized path changed: %v vs %v", got, base)
	}
}

// TestRealizeInstallsPools: pools declared on the plan are live on the
// realized network, and poolless nodes keep the QueueBytes fallback.
func TestRealizeInstallsPools(t *testing.T) {
	p := SingleSwitch(3, netsim.LinkConfig{})
	p.SetSwitchPools(netsim.PoolConfig{TotalBytes: 4096, ReserveBytes: 128, Alpha: 1})
	nw := netsim.New(1)
	mk := func(netsim.NodeID) netsim.Node { return nopNode{} }
	p.Realize(nw, mk, mk)
	ps, ok := nw.PoolStats(p.Switches[0])
	if !ok || ps.TotalBytes != 4096 {
		t.Fatalf("switch pool missing or wrong: %+v ok=%v", ps, ok)
	}
	if _, ok := nw.PoolStats(p.Hosts[0]); ok {
		t.Fatal("host unexpectedly has a pool")
	}
}
