// Package controller is the SDN control plane of the reproduction: given a
// job's mapper/reducer placement, it computes one aggregation tree per
// reducer (Figure 2 of the paper — a spanning tree covering all paths from
// the mappers to that reducer) and configures the switches: tree ID, output
// port toward the next tree node, the aggregation function, and the number
// of children each device must hear an END from before flushing.
package controller

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/transport"
)

// Controller owns the mapping from switch node IDs to their programs.
type Controller struct {
	fab      *topology.Fabric
	programs map[netsim.NodeID]*core.Program
}

// New creates a controller for a realized fabric. programs maps every
// switch node ID to the DAIET program running on it.
func New(fab *topology.Fabric, programs map[netsim.NodeID]*core.Program) *Controller {
	return &Controller{fab: fab, programs: programs}
}

// Deployment is a realized DAIET fabric: the fabric, one program per
// switch, one transport host per host node, and the controller that
// routed it.
type Deployment struct {
	Fab      *topology.Fabric
	Programs map[netsim.NodeID]*core.Program
	Hosts    map[netsim.NodeID]*transport.Host
	Ctl      *Controller
}

// Deploy is the control plane's set-up, the one way a fabric is built: it
// builds every switch's program from cfg (in plan.Switches order, so an
// infeasible cfg fails before nw gains a node), realizes plan onto nw
// with those programs and one transport.Host per host, and installs
// baseline routing on every switch.
func Deploy(nw *netsim.Network, plan *topology.Plan, cfg core.ProgramConfig) (*Deployment, error) {
	d := &Deployment{
		Programs: make(map[netsim.NodeID]*core.Program, len(plan.Switches)),
		Hosts:    make(map[netsim.NodeID]*transport.Host, len(plan.Hosts)),
	}
	for _, sw := range plan.Switches {
		prog, err := core.NewProgram(cfg)
		if err != nil {
			return nil, fmt.Errorf("controller: program for switch %d: %w", sw, err)
		}
		d.Programs[sw] = prog
	}
	d.Fab = plan.Realize(nw,
		func(id netsim.NodeID) netsim.Node { return d.Programs[id].Switch() },
		func(id netsim.NodeID) netsim.Node {
			h := transport.NewHost()
			d.Hosts[id] = h
			return h
		})
	d.Ctl = New(d.Fab, d.Programs)
	if err := d.Ctl.InstallRouting(); err != nil {
		return nil, err
	}
	return d, nil
}

// InstallRouting installs plain IPv4 forwarding entries on every switch for
// every host, so baseline (non-aggregated) traffic flows. Switches go in
// ID order, so the first failure named is the same on every run.
func (c *Controller) InstallRouting() error {
	ids := make([]netsim.NodeID, 0, len(c.programs))
	for id := range c.programs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := c.InstallRoutingOn(id); err != nil {
			return err
		}
	}
	return nil
}

// InstallRoutingOn installs the forwarding entries for every host on one
// switch — the recovery path for a switch that rebooted with empty tables.
func (c *Controller) InstallRoutingOn(swID netsim.NodeID) error {
	prog, ok := c.programs[swID]
	if !ok {
		return fmt.Errorf("controller: no program registered for switch %d", swID)
	}
	prog.ReserveRoutes(len(c.fab.Plan.Hosts))
	for _, h := range c.fab.Plan.Hosts {
		nh, ok := c.fab.NextHop(swID, h)
		if !ok {
			return fmt.Errorf("controller: switch %d cannot reach host %d", swID, h)
		}
		port := c.fab.PortTo(swID, nh)
		if port < 0 {
			return fmt.Errorf("controller: switch %d has no port to %d", swID, nh)
		}
		if err := prog.InstallRoute(uint32(h), port); err != nil {
			return err
		}
	}
	return nil
}

// TreePlan describes one aggregation tree: parent pointers toward the root
// (the reducer) for every participating node, and per-node child counts.
type TreePlan struct {
	TreeID  uint32
	Root    netsim.NodeID
	Mappers []netsim.NodeID
	// Parent maps each non-root tree node to the next node toward the root.
	Parent map[netsim.NodeID]netsim.NodeID
	// Children counts each tree node's distinct children.
	Children map[netsim.NodeID]int
	// SwitchNodes lists the switches participating, in deterministic order.
	SwitchNodes []netsim.NodeID
}

// RootChildren returns the number of tree children of the reducer itself:
// the number of END packets the collector should expect.
func (p *TreePlan) RootChildren() int { return p.Children[p.Root] }

// Depth returns the maximum number of hops from any mapper to the root.
func (p *TreePlan) Depth() int {
	depth := 0
	for _, m := range p.Mappers {
		d := 0
		for cur := m; cur != p.Root; cur = p.Parent[cur] {
			d++
		}
		if d > depth {
			depth = d
		}
	}
	return depth
}

// PlanTree computes the aggregation tree for one reducer as the union of
// shortest paths from every mapper. Because next hops are deterministic per
// destination, the union is cycle-free and forms a tree rooted at the
// reducer.
func (c *Controller) PlanTree(reducer netsim.NodeID, mappers []netsim.NodeID) (*TreePlan, error) {
	return c.PlanTreeAvoiding(reducer, mappers, nil)
}

// PlanTreeAvoiding is PlanTree over the fabric minus an avoid set — the
// failover path: after the liveness monitor declares switches or links
// dead, the controller re-plans every affected tree around them. A mapper
// with no surviving path to the reducer makes the plan fail; callers
// retry with a reachable subset (see MapperSubsetAvoiding) or wait for
// recovery.
func (c *Controller) PlanTreeAvoiding(reducer netsim.NodeID, mappers []netsim.NodeID,
	avoid *topology.Avoid) (*TreePlan, error) {

	if len(mappers) == 0 {
		return nil, fmt.Errorf("controller: tree for reducer %d has no mappers", reducer)
	}
	plan := &TreePlan{
		TreeID:   uint32(reducer),
		Root:     reducer,
		Mappers:  append([]netsim.NodeID(nil), mappers...),
		Parent:   make(map[netsim.NodeID]netsim.NodeID),
		Children: make(map[netsim.NodeID]int),
	}
	seenChild := make(map[[2]netsim.NodeID]bool)
	switches := make(map[netsim.NodeID]bool)
	for _, m := range mappers {
		if m == reducer {
			return nil, fmt.Errorf("controller: mapper and reducer are the same node %d", m)
		}
		path := c.fab.PathAvoiding(m, reducer, avoid)
		if path == nil {
			return nil, fmt.Errorf("controller: no path from mapper %d to reducer %d", m, reducer)
		}
		for i := 0; i+1 < len(path); i++ {
			child, parent := path[i], path[i+1]
			if prev, ok := plan.Parent[child]; ok && prev != parent {
				return nil, fmt.Errorf("controller: inconsistent next hop at %d: %d vs %d",
					child, prev, parent)
			}
			plan.Parent[child] = parent
			edge := [2]netsim.NodeID{child, parent}
			if !seenChild[edge] {
				seenChild[edge] = true
				plan.Children[parent]++
			}
			if topology.IsSwitchID(child) {
				switches[child] = true
			}
		}
	}
	for sw := range switches {
		plan.SwitchNodes = append(plan.SwitchNodes, sw)
	}
	sort.Slice(plan.SwitchNodes, func(i, j int) bool { return plan.SwitchNodes[i] < plan.SwitchNodes[j] })
	return plan, nil
}

// MapperSubsetAvoiding splits mappers into those with a surviving path to
// the reducer under the avoid set and those orphaned by failures. The
// fault-tolerant shuffle plans trees over the reachable subset and lets
// orphans wait for recovery.
func (c *Controller) MapperSubsetAvoiding(reducer netsim.NodeID, mappers []netsim.NodeID,
	avoid *topology.Avoid) (reachable, orphaned []netsim.NodeID) {

	next := c.fab.NextHopsAvoiding(reducer, avoid) // one BFS for all mappers
	for _, m := range mappers {
		if _, ok := next[m]; ok && m != reducer {
			reachable = append(reachable, m)
		} else {
			orphaned = append(orphaned, m)
		}
	}
	return reachable, orphaned
}

// TreeOptions carries the aggregation parameters applied uniformly across a
// tree's switches.
type TreeOptions struct {
	Agg       core.AggFuncID
	TableSize int
	SpillCap  int // 0: one packet's worth

	// Epoch/PinEpoch pin every switch of the tree to one recovery round
	// (see core.TreeConfig). The fault-tolerant shuffle bumps the epoch on
	// every round restart.
	Epoch    uint8
	PinEpoch bool

	// Reliable enables the exactly-once gate on every switch of the tree:
	// each switch accepts strictly in-order per-sender sequences from its
	// own tree children (hosts at the leaves, child switches upstream) and
	// acknowledges cumulatively.
	Reliable bool

	// RootReplay/RootRTO enable the switch-side replay buffer on the
	// tree's root switch (the switch whose parent is the reducer). With
	// HopReplay, every switch retains its emissions until its tree parent
	// — gate or collector — acknowledges them: combined with Reliable this
	// makes the whole tree hop-by-hop reliable, as the bigincast
	// experiment runs it.
	RootReplay int
	RootRTO    time.Duration
	HopReplay  bool

	// DataClass/AckClass select the shared-buffer traffic class the tree's
	// switch emissions are admitted under on pooled switches — flushes,
	// spills and replays leave under DataClass, cumulative ACKs under
	// AckClass (see core.TreeConfig and netsim.PoolConfig.Classes). Both
	// default to 0. Tenant is an attribution tag for multi-job runs.
	DataClass int
	AckClass  int
	Tenant    int
}

// InstallTree configures every switch in the plan. On failure, switches
// configured so far are rolled back.
func (c *Controller) InstallTree(plan *TreePlan, opt TreeOptions) error {
	if opt.TableSize <= 0 {
		return fmt.Errorf("controller: table size %d", opt.TableSize)
	}
	// With the gate on, each switch's sender table lists its own tree
	// children, in deterministic (sorted) order.
	var kids map[netsim.NodeID][]uint32
	if opt.Reliable {
		kids = make(map[netsim.NodeID][]uint32, len(plan.SwitchNodes))
		for child, parent := range plan.Parent {
			kids[parent] = append(kids[parent], uint32(child))
		}
		for _, list := range kids {
			sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		}
	}
	done := make([]netsim.NodeID, 0, len(plan.SwitchNodes))
	for _, sw := range plan.SwitchNodes {
		prog, ok := c.programs[sw]
		if !ok {
			c.rollback(plan, done)
			return fmt.Errorf("controller: no program registered for switch %d", sw)
		}
		parent := plan.Parent[sw]
		port := c.fab.PortTo(sw, parent)
		if port < 0 {
			c.rollback(plan, done)
			return fmt.Errorf("controller: switch %d has no port to tree parent %d", sw, parent)
		}
		cfg := core.TreeConfig{
			TreeID:    plan.TreeID,
			OutPort:   port,
			Children:  plan.Children[sw],
			Agg:       opt.Agg,
			TableSize: opt.TableSize,
			SpillCap:  opt.SpillCap,
			Epoch:     opt.Epoch,
			PinEpoch:  opt.PinEpoch,
			DataClass: opt.DataClass,
			AckClass:  opt.AckClass,
			Tenant:    opt.Tenant,
		}
		if opt.Reliable {
			cfg.Reliable = true
			cfg.Senders = kids[sw]
		}
		if parent == plan.Root || opt.HopReplay {
			cfg.RootReplay = opt.RootReplay
			cfg.RootRTO = opt.RootRTO
		}
		err := prog.ConfigureTree(cfg)
		if err != nil {
			c.rollback(plan, done)
			return fmt.Errorf("controller: configuring switch %d: %w", sw, err)
		}
		done = append(done, sw)
	}
	return nil
}

// UninstallTree removes the plan's tree from every switch.
func (c *Controller) UninstallTree(plan *TreePlan) {
	c.rollback(plan, plan.SwitchNodes)
}

func (c *Controller) rollback(plan *TreePlan, switches []netsim.NodeID) {
	for _, sw := range switches {
		if prog, ok := c.programs[sw]; ok {
			prog.RemoveTree(plan.TreeID)
		}
	}
}

// Program returns the program registered for a switch (diagnostics).
func (c *Controller) Program(sw netsim.NodeID) *core.Program { return c.programs[sw] }
