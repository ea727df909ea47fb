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
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

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

// PartitionGroups computes the rack-cut partitioning of the plan for the
// parallel event engine (netsim.Network.Partition): one unit per rack (an
// edge switch plus the hosts attached to it), hostless switches (spines,
// aggregations, cores) pooled into one fabric unit. Cutting at rack
// boundaries keeps the chatty host<->leaf traffic inside one domain and
// pays synchronization only on inter-rack links.
//
// Units are packed into the n groups by predicted event load (each unit's
// link-degree sum — every port an attached link gives a unit node is a
// stream of frame-delivery work), longest-processing-time first into the
// currently lightest group. Uneven fabrics (racks of different sizes, a fat
// spine unit) therefore come out with the lowest predicted skew a static
// assignment can give, instead of whatever round-robin dealt — the measured
// counterpart is netsim.Network.DomainEvents. Ties break deterministically
// (first group wins), so the grouping is a pure function of the plan.
//
// When n exceeds the number of rack units (a single-switch plan, say), the
// plan is cut inside racks instead: nodes are dealt individually, so the
// fan-in senders of an incast spread across domains. Any grouping is
// correct — the cut only affects the lookahead window, never results.
func (p *Plan) PartitionGroups(n int) [][]netsim.NodeID {
	all := make([]netsim.NodeID, 0, len(p.Switches)+len(p.Hosts))
	all = append(all, p.Switches...)
	all = append(all, p.Hosts...)
	if n <= 1 || len(all) <= 1 {
		return [][]netsim.NodeID{all}
	}
	if n > len(all) {
		n = len(all)
	}

	units := p.partitionUnits()
	if len(units) >= n {
		deg := p.degrees()
		weights := make([]float64, len(units))
		for i, u := range units {
			for _, id := range u {
				weights[i] += float64(deg[id])
			}
		}
		return lptPack(units, weights, n)
	}
	// Fewer racks than requested domains: cut inside racks, dealing nodes
	// individually (unit order keeps each switch near the front of its bin).
	bins := make([][]netsim.NodeID, n)
	i := 0
	for _, u := range units {
		for _, id := range u {
			bins[i%n] = append(bins[i%n], id)
			i++
		}
	}
	return bins
}

// SetCorePropagation sets the propagation delay of every switch-to-switch
// link of the plan, leaving host links untouched. Rack cuts run along the
// core tier, so this is the knob that widens (or narrows) the partitioned
// engine's synchronization lookahead: the syncproto figure sweeps it to
// contrast short- and long-haul cut channels.
func (p *Plan) SetCorePropagation(d time.Duration) {
	for i := range p.Links {
		if IsSwitchID(p.Links[i].A) && IsSwitchID(p.Links[i].B) {
			p.Links[i].Cfg.Propagation = d
		}
	}
}

// NoCutLink marks a domain pair with no direct cut link in the matrix
// CutLookaheads returns.
const NoCutLink = time.Duration(math.MaxInt64)

// CutLookaheads extracts, for a prospective grouping, the minimum
// propagation delay over the cut links between every ordered domain pair —
// the direct per-channel lookahead structure the partitioned engine will
// synchronize on (the engine adds one serialization tick per link and
// closes the matrix over relay paths). Pairs with no direct cut link hold
// NoCutLink; the diagonal always does. Tests and figures use it to confirm
// a topology really has the heterogeneous cut (one short channel among
// long ones) a sync-protocol comparison needs.
func (p *Plan) CutLookaheads(groups [][]netsim.NodeID) [][]time.Duration {
	dom := make(map[netsim.NodeID]int, len(p.Hosts)+len(p.Switches))
	for g, ids := range groups {
		for _, id := range ids {
			dom[id] = g
		}
	}
	la := make([][]time.Duration, len(groups))
	for i := range la {
		la[i] = make([]time.Duration, len(groups))
		for j := range la[i] {
			la[i][j] = NoCutLink
		}
	}
	for _, l := range p.Links {
		a, aok := dom[l.A]
		b, bok := dom[l.B]
		if !aok || !bok || a == b {
			continue
		}
		// Links realize bidirectionally, so the channel exists both ways.
		if l.Cfg.Propagation < la[a][b] {
			la[a][b] = l.Cfg.Propagation
			la[b][a] = l.Cfg.Propagation
		}
	}
	return la
}

// lptPack is the one LPT bin-packing implementation shared by the static
// cut (PartitionGroups) and the measured-rate re-cut (Reweigh): heaviest
// unit first, into the currently lightest bin. The stable sort and
// first-minimum scan break ties deterministically, so the packing is a
// pure function of (units, weights, n).
func lptPack(units [][]netsim.NodeID, weights []float64, n int) [][]netsim.NodeID {
	bins := make([][]netsim.NodeID, n)
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weights[order[a]] > weights[order[b]]
	})
	loads := make([]float64, n)
	for _, ui := range order {
		min := 0
		for b := 1; b < n; b++ {
			if loads[b] < loads[min] {
				min = b
			}
		}
		bins[min] = append(bins[min], units[ui]...)
		loads[min] += weights[ui]
	}
	return bins
}

// degrees counts link endpoints per node — the static proxy for each node's
// event rate the group balancer packs by.
func (p *Plan) degrees() map[netsim.NodeID]int {
	deg := make(map[netsim.NodeID]int, len(p.Hosts)+len(p.Switches))
	for _, l := range p.Links {
		deg[l.A]++
		deg[l.B]++
	}
	return deg
}

// PredictedLoads returns each group's predicted event load (link-degree
// sum) under the plan's weight model — the quantity PartitionGroups
// balances. Exposed so tests and diagnostics can quantify cut skew against
// the measured netsim.Network.DomainEvents.
func (p *Plan) PredictedLoads(groups [][]netsim.NodeID) []int {
	deg := p.degrees()
	loads := make([]int, len(groups))
	for i, g := range groups {
		for _, id := range g {
			loads[i] += deg[id]
		}
	}
	return loads
}

// Reweigh computes a re-cut of the plan's rack units from measured
// per-domain event counts: the same LPT packing as PartitionGroups, but
// with each unit's static link-degree weight scaled by how much hotter or
// colder its current domain ran than the static model predicted
// (measured share / predicted share). A domain that did twice its
// predicted share of the work makes all of its units twice as heavy, so
// the re-cut spreads them; a cold domain's units merge. current is the
// grouping in effect (one group per domain, as netsim reports it) and
// measured the per-domain event counts over the measurement window.
// Returns nil — keep the current cut — when nothing was measured or the
// shapes do not line up.
func (p *Plan) Reweigh(current [][]netsim.NodeID, measured []uint64) [][]netsim.NodeID {
	n := len(current)
	if n == 0 || len(measured) != n {
		return nil
	}
	var total uint64
	for _, m := range measured {
		total += m
	}
	predicted := p.PredictedLoads(current)
	predTotal := 0
	for _, l := range predicted {
		predTotal += l
	}
	if total == 0 || predTotal == 0 {
		return nil
	}
	domOf := make(map[netsim.NodeID]int, len(p.Hosts)+len(p.Switches))
	for i, g := range current {
		for _, id := range g {
			domOf[id] = i
		}
	}
	factor := make([]float64, n)
	for i := range factor {
		predShare := float64(predicted[i]) / float64(predTotal)
		measShare := float64(measured[i]) / float64(total)
		if predShare <= 0 {
			factor[i] = 1
		} else {
			factor[i] = measShare / predShare
		}
	}
	units := p.partitionUnits()
	if len(units) < n {
		return nil // sub-rack cuts keep their initial dealing
	}
	deg := p.degrees()
	weights := make([]float64, len(units))
	for i, u := range units {
		for _, id := range u {
			w := float64(deg[id])
			if dom, ok := domOf[id]; ok {
				w *= factor[dom]
			}
			weights[i] += w
		}
	}
	return lptPack(units, weights, n)
}

// partitionUnits computes the plan's atomic partition units: one unit per
// rack (an edge switch plus its attached hosts), hostless switches pooled
// into one fabric unit, orphan hosts one unit each.
func (p *Plan) partitionUnits() [][]netsim.NodeID {
	// Host -> attached switch (first link wins; every plan this package
	// builds gives hosts exactly one uplink).
	attach := make(map[netsim.NodeID]netsim.NodeID, len(p.Hosts))
	for _, l := range p.Links {
		h, sw := l.A, l.B
		if IsSwitchID(h) {
			h, sw = sw, h
		}
		if IsSwitchID(h) || !IsSwitchID(sw) {
			continue // switch-switch or host-host link
		}
		if _, ok := attach[h]; !ok {
			attach[h] = sw
		}
	}
	hostsOf := make(map[netsim.NodeID][]netsim.NodeID, len(p.Switches))
	for _, h := range p.Hosts {
		if sw, ok := attach[h]; ok {
			hostsOf[sw] = append(hostsOf[sw], h)
		}
	}

	var units [][]netsim.NodeID
	var spine []netsim.NodeID
	for _, sw := range p.Switches {
		if hs := hostsOf[sw]; len(hs) > 0 {
			unit := make([]netsim.NodeID, 0, 1+len(hs))
			units = append(units, append(append(unit, sw), hs...))
		} else {
			spine = append(spine, sw)
		}
	}
	if len(spine) > 0 {
		units = append(units, spine)
	}
	for _, h := range p.Hosts {
		if _, ok := attach[h]; !ok {
			units = append(units, []netsim.NodeID{h})
		}
	}
	return units
}

// PartitionUnits returns how many rack-cut units the plan decomposes into —
// the natural upper bound on useful event-engine domains (beyond it, cuts
// land inside racks and synchronize on short edge-link latencies).
func (p *Plan) PartitionUnits() int { return len(p.partitionUnits()) }

// AutoPartitions is the domain count Partitions picks for n == 0:
// min(rack-cut units, GOMAXPROCS). More domains than units would cut inside
// racks; more than GOMAXPROCS would multiplex goroutines with no cores to
// run them.
func (p *Plan) AutoPartitions() int {
	n := p.PartitionUnits()
	if procs := runtime.GOMAXPROCS(0); procs < n {
		n = procs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Partitions splits the realized fabric into n parallel event-engine
// domains along the plan's rack cut (see PartitionGroups). n == 1 keeps the
// sequential engine; n <= 0 autotunes the count via AutoPartitions. Must be
// called before any traffic is injected.
func (f *Fabric) Partitions(n int) error {
	if n <= 0 {
		n = f.Plan.AutoPartitions()
	}
	if n <= 1 {
		return nil
	}
	return f.Net.Partition(f.Plan.PartitionGroups(n))
}

// RecutConfig enables measured-skew dynamic re-partitioning on top of the
// static rack cut (see Fabric.PartitionsDynamic). The zero value disables
// re-cutting, so it can ride along in experiment configs at no cost.
type RecutConfig struct {
	// Every is the virtual-time cadence of skew evaluations; <= 0 disables
	// dynamic re-cutting.
	Every time.Duration
	// MinSkewPct is the measured event-count skew — busiest domain over
	// the mean, in percent — above which the cut is recomputed.
	MinSkewPct float64
	// Seed, when non-zero, jitters the evaluation schedule (netsim's
	// seeded random re-cut points, used by the conformance tests).
	Seed uint64
}

// PartitionsDynamic is Partitions plus a dynamic re-cut policy: at every
// evaluation point the engine's measured per-domain event counts
// (netsim.Network.DomainEvents deltas) are compared against the cut's
// prediction, and when the skew exceeds rc.MinSkewPct the rack units are
// re-packed by Plan.Reweigh — the same LPT as the initial cut, driven by
// measured rates. Determinism is unchanged: any re-cut schedule replays
// byte-identically (the re-cut only moves state between engines, never
// reorders events).
func (f *Fabric) PartitionsDynamic(n int, rc RecutConfig) error {
	if err := f.Partitions(n); err != nil {
		return err
	}
	if rc.Every <= 0 || f.Net.Domains() <= 1 {
		return nil
	}
	plan := f.Plan
	return f.Net.SetRecutPolicy(netsim.RecutPolicy{
		Interval:   netsim.Duration(rc.Every),
		MinSkewPct: rc.MinSkewPct,
		Seed:       rc.Seed,
		Groups:     plan.Reweigh,
	})
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
