// Package topology builds data-center fabric layouts over netsim and
// answers path queries for the controller.
//
// The paper's prototype ran a single bmv2 switch between 24 mappers and 12
// reducers; its outlook (§1, §7) targets racks and clusters. The package
// provides that single-switch rack plus leaf-spine and k-ary fat-tree
// fabrics so multi-switch aggregation trees (Figure 2) can be exercised.
//
// A Plan is pure data (IDs and links); Realize instantiates nodes into a
// Network via caller-supplied constructors, keeping this package free of
// dependencies on switch or host implementations.
package topology

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"github.com/daiet/daiet/internal/hashing"
	"github.com/daiet/daiet/internal/netsim"
)

// ID allocation plan: hosts from HostBase, switches from SwitchBase. Both
// fit the 24-bit node space of the wire addressing scheme.
const (
	HostBase   netsim.NodeID = 1
	SwitchBase netsim.NodeID = 0x800000
)

// IsSwitchID reports whether id falls in the switch range.
func IsSwitchID(id netsim.NodeID) bool { return id >= SwitchBase }

// Link is one planned bidirectional link.
type Link struct {
	A, B netsim.NodeID
	Cfg  netsim.LinkConfig
}

// Plan is a fabric blueprint: node IDs plus links. Plans are deterministic
// for given parameters.
type Plan struct {
	Name     string
	Hosts    []netsim.NodeID
	Switches []netsim.NodeID
	Links    []Link

	// Pools assigns shared-memory buffer pools to nodes (normally switches):
	// Realize installs each one via netsim.Network.SetNodePool, switching
	// that node's egress queues from private per-port FIFOs to Dynamic
	// Threshold admission against one shared memory. Nodes absent from the
	// map keep the LinkConfig.QueueBytes fallback, so plans without pools
	// reproduce all historical figures bit-for-bit.
	Pools map[netsim.NodeID]netsim.PoolConfig
}

// SetPool assigns a shared buffer pool to one node of the plan. The
// config is not validated here; like the rest of a plan's structure
// (duplicate nodes, unknown link endpoints), an invalid pool config is a
// configuration error that panics at Realize time.
func (p *Plan) SetPool(id netsim.NodeID, cfg netsim.PoolConfig) {
	if p.Pools == nil {
		p.Pools = make(map[netsim.NodeID]netsim.PoolConfig)
	}
	p.Pools[id] = cfg
}

// SetSwitchPools assigns cfg to every switch in the plan — the uniform
// single-tier sizing. Multi-tier fabrics (leaf vs spine SRAM) call SetPool
// per tier instead.
func (p *Plan) SetSwitchPools(cfg netsim.PoolConfig) {
	for _, sw := range p.Switches {
		p.SetPool(sw, cfg)
	}
}

// SingleSwitch is the paper's evaluation fabric: n hosts on one switch.
func SingleSwitch(nHosts int, cfg netsim.LinkConfig) *Plan {
	p := &Plan{Name: fmt.Sprintf("single-switch-%dh", nHosts)}
	sw := SwitchBase
	p.Switches = []netsim.NodeID{sw}
	for i := 0; i < nHosts; i++ {
		h := HostBase + netsim.NodeID(i)
		p.Hosts = append(p.Hosts, h)
		p.Links = append(p.Links, Link{A: h, B: sw, Cfg: cfg})
	}
	return p
}

// LeafSpine builds a 2-tier Clos: nLeaf leaves each with hostsPerLeaf
// hosts, fully meshed to nSpine spines.
func LeafSpine(nLeaf, nSpine, hostsPerLeaf int, cfg netsim.LinkConfig) *Plan {
	p := &Plan{Name: fmt.Sprintf("leaf-spine-%dx%dx%d", nLeaf, nSpine, hostsPerLeaf)}
	leaves := make([]netsim.NodeID, nLeaf)
	for i := range leaves {
		leaves[i] = SwitchBase + netsim.NodeID(i)
		p.Switches = append(p.Switches, leaves[i])
	}
	spines := make([]netsim.NodeID, nSpine)
	for i := range spines {
		spines[i] = SwitchBase + netsim.NodeID(nLeaf+i)
		p.Switches = append(p.Switches, spines[i])
	}
	h := HostBase
	for _, leaf := range leaves {
		for j := 0; j < hostsPerLeaf; j++ {
			p.Hosts = append(p.Hosts, h)
			p.Links = append(p.Links, Link{A: h, B: leaf, Cfg: cfg})
			h++
		}
		for _, spine := range spines {
			p.Links = append(p.Links, Link{A: leaf, B: spine, Cfg: cfg})
		}
	}
	return p
}

// FatTree builds the canonical k-ary fat-tree (k even): k pods, each with
// k/2 edge and k/2 aggregation switches, (k/2)^2 cores, and k^3/4 hosts.
func FatTree(k int, cfg netsim.LinkConfig) (*Plan, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree requires even k >= 2, got %d", k)
	}
	p := &Plan{Name: fmt.Sprintf("fat-tree-k%d", k)}
	half := k / 2
	next := SwitchBase
	alloc := func() netsim.NodeID {
		id := next
		next++
		p.Switches = append(p.Switches, id)
		return id
	}
	cores := make([]netsim.NodeID, half*half)
	for i := range cores {
		cores[i] = alloc()
	}
	host := HostBase
	for pod := 0; pod < k; pod++ {
		aggs := make([]netsim.NodeID, half)
		edges := make([]netsim.NodeID, half)
		for i := 0; i < half; i++ {
			aggs[i] = alloc()
		}
		for i := 0; i < half; i++ {
			edges[i] = alloc()
		}
		for i, agg := range aggs {
			// Each agg connects to its core group.
			for j := 0; j < half; j++ {
				p.Links = append(p.Links, Link{A: agg, B: cores[i*half+j], Cfg: cfg})
			}
			for _, e := range edges {
				p.Links = append(p.Links, Link{A: agg, B: e, Cfg: cfg})
			}
		}
		for _, e := range edges {
			for j := 0; j < half; j++ {
				p.Hosts = append(p.Hosts, host)
				p.Links = append(p.Links, Link{A: host, B: e, Cfg: cfg})
				host++
			}
		}
	}
	return p, nil
}

// Edge is one adjacency entry: the local out-port that reaches Peer.
type Edge struct {
	Peer netsim.NodeID
	Port int
}

// Fabric is a realized plan: nodes added, links connected, ports recorded.
type Fabric struct {
	Plan *Plan
	Net  *netsim.Network
	adj  map[netsim.NodeID][]Edge
	// Dense mirror of the graph, built once in Realize, for the empty-avoid
	// routing path every InstallRouting and tree plan takes. Routing from
	// it costs what the fabric uses: one BFS per distinct attachment set
	// (megaincast: 17 leaves, not 1,088 hosts), and each next-hop query
	// scans only the asking node's switch neighbours. Next-hop choices are
	// identical to the map BFS: candidate order is the per-node edge order
	// either way, and the ECMP pick hashes (node, dst) IDs only.
	ids  []netsim.NodeID         // dense index -> node ID
	idx  map[netsim.NodeID]int32 // node ID -> dense index
	dadj [][]int32               // dense adjacency, same edge order as adj
	sadj [][]int32               // dadj restricted to switch peers: the transit next hops
	// dist[i] is the memoized hop-distance vector toward node i (see
	// distTo), nil until first asked; hosts with the same attachment set
	// share one vector through distBy, keyed by the BFS source set.
	dist   [][]int32
	distBy map[string][]int32
}

// Realize adds every planned node to nw (switches via mkSwitch, hosts via
// mkHost) and connects every planned link, returning the queryable fabric.
func (p *Plan) Realize(nw *netsim.Network,
	mkSwitch, mkHost func(netsim.NodeID) netsim.Node) *Fabric {

	f := &Fabric{
		Plan:   p,
		Net:    nw,
		adj:    make(map[netsim.NodeID][]Edge),
		distBy: make(map[string][]int32),
	}
	for _, id := range p.Switches {
		nw.AddNode(id, mkSwitch(id))
	}
	for _, id := range p.Hosts {
		nw.AddNode(id, mkHost(id))
	}
	for _, l := range p.Links {
		pa, pb := nw.Connect(l.A, l.B, l.Cfg)
		f.adj[l.A] = append(f.adj[l.A], Edge{Peer: l.B, Port: pa})
		f.adj[l.B] = append(f.adj[l.B], Edge{Peer: l.A, Port: pb})
	}
	// Dense graph mirror for the routing fast path: switches then hosts,
	// edges in the same order as adj.
	f.ids = append(append(make([]netsim.NodeID, 0, len(p.Switches)+len(p.Hosts)), p.Switches...), p.Hosts...)
	f.idx = make(map[netsim.NodeID]int32, len(f.ids))
	for i, id := range f.ids {
		f.idx[id] = int32(i)
	}
	f.dadj = make([][]int32, len(f.ids))
	f.sadj = make([][]int32, len(f.ids))
	f.dist = make([][]int32, len(f.ids))
	for i, id := range f.ids {
		for _, e := range f.adj[id] {
			peer := f.idx[e.Peer]
			f.dadj[i] = append(f.dadj[i], peer)
			if IsSwitchID(e.Peer) {
				f.sadj[i] = append(f.sadj[i], peer)
			}
		}
	}
	installed := 0
	for _, id := range f.ids {
		if cfg, ok := p.Pools[id]; ok {
			if err := nw.SetNodePool(id, cfg); err != nil {
				panic(fmt.Sprintf("topology: installing pool on node %d: %v", id, err))
			}
			installed++
		}
	}
	if installed != len(p.Pools) {
		// A Pools key naming a node outside the plan would otherwise be
		// silently skipped — and the experiment would quietly run on
		// per-port FIFOs instead of the pool it asked for.
		for id := range p.Pools {
			if !containsNode(p.Switches, id) && !containsNode(p.Hosts, id) {
				panic(fmt.Sprintf("topology: pool configured for node %d, which is not in the plan", id))
			}
		}
	}
	return f
}

func containsNode(ids []netsim.NodeID, id netsim.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency of id (stable order).
func (f *Fabric) Neighbors(id netsim.NodeID) []Edge { return f.adj[id] }

// PortTo returns the port on `from` that directly reaches `to`, or -1.
func (f *Fabric) PortTo(from, to netsim.NodeID) int {
	for _, e := range f.adj[from] {
		if e.Peer == to {
			return e.Port
		}
	}
	return -1
}

// Avoid names failed fabric components the control plane wants path
// computation to route around: dead switches and administratively-down
// links. The zero value (or nil) avoids nothing. Link keys are normalized
// endpoint pairs — use LinkKey.
type Avoid struct {
	Nodes map[netsim.NodeID]bool
	Links map[[2]netsim.NodeID]bool
}

// LinkKey normalizes a link's endpoints into the Avoid.Links key order.
func LinkKey(a, b netsim.NodeID) [2]netsim.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]netsim.NodeID{a, b}
}

// empty reports whether the avoid set excludes nothing (nil-safe).
func (a *Avoid) empty() bool {
	return a == nil || (len(a.Nodes) == 0 && len(a.Links) == 0)
}

func (a *Avoid) node(id netsim.NodeID) bool { return a != nil && a.Nodes[id] }

func (a *Avoid) link(x, y netsim.NodeID) bool {
	return a != nil && a.Links[LinkKey(x, y)]
}

// nextHopMap computes, via reverse BFS from dst, the next hop toward dst
// from every reachable node, excluding everything in avoid — the failover
// path: queries see the fabric's current failures, so they recompute each
// time. When several equal-cost next hops exist, one is chosen by hashing
// (node, dst) — ECMP-style spreading, so different destinations'
// aggregation trees use different spines while every single destination
// still gets one deterministic loop-free tree (the property the paper's
// correctness argument needs). The empty avoid set takes the dense query
// (nextHop) instead, which makes the same choices.
func (f *Fabric) nextHopMap(dst netsim.NodeID, avoid *Avoid) map[netsim.NodeID]netsim.NodeID {
	next := map[netsim.NodeID]netsim.NodeID{dst: dst}
	if avoid.node(dst) {
		return next
	}
	// Pass 1: BFS distances from dst (traffic never transits hosts).
	dist := map[netsim.NodeID]int{dst: 0}
	queue := []netsim.NodeID{dst}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if !IsSwitchID(cur) && cur != dst {
			continue // hosts are leaves of the BFS
		}
		for _, e := range f.adj[cur] {
			if _, seen := dist[e.Peer]; seen {
				continue
			}
			if avoid.node(e.Peer) || avoid.link(cur, e.Peer) {
				continue
			}
			dist[e.Peer] = dist[cur] + 1
			queue = append(queue, e.Peer)
		}
	}
	// Pass 2: per node, collect all equal-cost next hops and hash-pick.
	var key [8]byte
	for node, d := range dist {
		if node == dst {
			continue
		}
		var candidates []netsim.NodeID
		for _, e := range f.adj[node] {
			if avoid.node(e.Peer) || avoid.link(node, e.Peer) {
				continue
			}
			if nd, ok := dist[e.Peer]; ok && nd == d-1 {
				// The next hop must be able to carry transit traffic (be a
				// switch) unless it is the destination itself.
				if IsSwitchID(e.Peer) || e.Peer == dst {
					candidates = append(candidates, e.Peer)
				}
			}
		}
		if len(candidates) == 0 {
			continue // unreachable through valid transit
		}
		binary.BigEndian.PutUint32(key[0:4], uint32(node))
		binary.BigEndian.PutUint32(key[4:8], uint32(dst))
		next[node] = candidates[hashing.ECMPPick(key[:], len(candidates))]
	}
	return next
}

// distTo returns the memoized hop-distance vector toward dense node di, or
// nil when nothing can reach it. For a switch the vector is a BFS from the
// switch itself: entry x is x's distance to it. For a host it is a
// multi-source BFS from the host's neighbours, so entry x is one less than
// x's distance to the host (the host's own entry is not its distance, 0).
// Hosts never transit, so that equals a BFS from the host — and every host
// with the same attachment set (every host of a rack) shares one vector,
// as does the rack's leaf switch.
func (f *Fabric) distTo(di int32) []int32 {
	if v := f.dist[di]; v != nil {
		return v
	}
	seeds := []int32{di}
	if !IsSwitchID(f.ids[di]) {
		seeds = slices.Compact(slices.Sorted(slices.Values(f.dadj[di])))
		if len(seeds) == 0 {
			return nil
		}
	}
	key := make([]byte, 0, 4*len(seeds))
	for _, s := range seeds {
		key = binary.LittleEndian.AppendUint32(key, uint32(s))
	}
	v, ok := f.distBy[string(key)]
	if !ok {
		v = f.bfs(seeds)
		f.distBy[string(key)] = v
	}
	f.dist[di] = v
	return v
}

// bfs returns hop distances from the seed set over the dense graph, -1
// where unreachable. Only switches are expanded: hosts are leaves.
func (f *Fabric) bfs(seeds []int32) []int32 {
	v := make([]int32, len(f.ids))
	for i := range v {
		v[i] = -1
	}
	q := make([]int32, 0, len(v))
	for _, s := range seeds {
		v[s] = 0
		q = append(q, s)
	}
	for qi := 0; qi < len(q); qi++ {
		cur := q[qi]
		if !IsSwitchID(f.ids[cur]) {
			continue
		}
		for _, peer := range f.dadj[cur] {
			if v[peer] < 0 {
				v[peer] = v[cur] + 1
				q = append(q, peer)
			}
		}
	}
	return v
}

// nextHop is the empty-avoid next-hop query between dense nodes fi != di.
// A node one hop from dst has dst as its only candidate. Otherwise the
// candidates are fi's switch neighbours one hop closer — in the distance
// vector, one less than fi's entry, whatever dst's kind; the BFS reached fi
// from one of them, so there is at least one — and the ECMP hash is taken
// only when there are two or more (ECMPPick(key, 1) is 0 for every key, so
// a lone candidate is the same choice).
func (f *Fabric) nextHop(fi, di int32) (netsim.NodeID, bool) {
	v := f.distTo(di)
	if v == nil || v[fi] < 0 {
		return 0, false
	}
	d := v[fi]
	hops := d
	if !IsSwitchID(f.ids[di]) {
		hops++ // host vectors count from the host's neighbours
	}
	if hops == 1 {
		return f.ids[di], true
	}
	n, first := 0, int32(0)
	for _, peer := range f.sadj[fi] {
		if v[peer] == d-1 {
			if n == 0 {
				first = peer
			}
			n++
		}
	}
	if n == 1 {
		return f.ids[first], true
	}
	var key [8]byte
	binary.BigEndian.PutUint32(key[0:4], uint32(f.ids[fi]))
	binary.BigEndian.PutUint32(key[4:8], uint32(f.ids[di]))
	k := hashing.ECMPPick(key[:], n)
	for _, peer := range f.sadj[fi] {
		if v[peer] == d-1 {
			if k == 0 {
				return f.ids[peer], true
			}
			k--
		}
	}
	panic("topology: ECMP pick outside its candidate set")
}

// NextHop returns the neighbor `from` should forward to in order to reach
// dst along a shortest path, and whether dst is reachable.
func (f *Fabric) NextHop(from, dst netsim.NodeID) (netsim.NodeID, bool) {
	if from == dst {
		return dst, true
	}
	fi, ok := f.idx[from]
	if !ok {
		return 0, false
	}
	di, ok := f.idx[dst]
	if !ok {
		return 0, false
	}
	return f.nextHop(fi, di)
}

// NextHopAvoiding is NextHop over the fabric minus the avoid set.
func (f *Fabric) NextHopAvoiding(from, dst netsim.NodeID, avoid *Avoid) (netsim.NodeID, bool) {
	if from == dst || avoid.empty() {
		return f.NextHop(from, dst)
	}
	nh, ok := f.nextHopMap(dst, avoid)[from]
	return nh, ok
}

// NextHopsAvoiding returns the whole next-hop-toward-dst map under the
// avoid set (read-only for the caller). Batch reachability queries — "which
// of these mappers can still reach the reducer?" — should use one call to
// this instead of one PathAvoiding BFS per mapper: the map is O(V+E) to
// build and answers every membership query for free.
func (f *Fabric) NextHopsAvoiding(dst netsim.NodeID, avoid *Avoid) map[netsim.NodeID]netsim.NodeID {
	if !avoid.empty() {
		return f.nextHopMap(dst, avoid)
	}
	next := map[netsim.NodeID]netsim.NodeID{dst: dst}
	for _, id := range f.ids {
		if nh, ok := f.NextHop(id, dst); ok {
			next[id] = nh
		}
	}
	return next
}

// Path returns the node sequence from src to dst inclusive, or nil when
// unreachable.
func (f *Fabric) Path(src, dst netsim.NodeID) []netsim.NodeID {
	return f.PathAvoiding(src, dst, nil)
}

// PathAvoiding returns the node sequence from src to dst inclusive through
// the fabric minus the avoid set, or nil when no such path exists. The
// controller re-plans aggregation trees with this after declaring switches
// or links dead.
func (f *Fabric) PathAvoiding(src, dst netsim.NodeID, avoid *Avoid) []netsim.NodeID {
	if avoid.node(src) {
		return nil
	}
	next := f.NextHop
	if !avoid.empty() {
		m := f.nextHopMap(dst, avoid)
		next = func(from, _ netsim.NodeID) (netsim.NodeID, bool) {
			nh, ok := m[from]
			return nh, ok
		}
	}
	path := []netsim.NodeID{src}
	for cur := src; cur != dst; {
		nh, ok := next(cur, dst)
		if !ok {
			return nil
		}
		cur = nh
		path = append(path, cur)
		if len(path) > len(f.adj)+1 {
			// Defensive: a cycle here would mean the next-hop choice is broken.
			panic("topology: path longer than node count")
		}
	}
	return path
}

// HostsSorted returns the plan's hosts in ascending ID order.
func (f *Fabric) HostsSorted() []netsim.NodeID {
	hs := append([]netsim.NodeID(nil), f.Plan.Hosts...)
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}
