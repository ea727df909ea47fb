// Package daiet is a from-scratch Go implementation of DAIET — in-network
// data aggregation for partition/aggregate data center applications — as
// described in "In-Network Computation is a Dumb Idea Whose Time Has Come"
// (Sapio, Abdelaziz, Aldilaijan, Canini, Kalnis; HotNets-XVI, 2017),
// together with the substrates its evaluation depends on: an RMT-style
// programmable switch pipeline, a deterministic packet-level network
// simulator, an SDN controller that builds aggregation trees, UDP-like and
// TCP-like transports, a MapReduce framework, a parameter-server ML
// training loop, and a Pregel-style graph engine.
//
// This root package is the public façade: it assembles fabrics, installs
// aggregation trees and hands out the worker/reducer endpoints. The
// quickstart looks like:
//
//	net, _ := daiet.NewSingleSwitch(5)
//	reducer, mappers := net.Hosts()[4], net.Hosts()[:4]
//	tree, _ := net.InstallTree(reducer, mappers, daiet.TreeOptions{
//		Agg: daiet.AggSum, TableSize: 1024,
//	})
//	col := net.NewCollector(reducer, daiet.AggSum, tree.RootChildren())
//	for _, m := range mappers {
//		s, _ := net.NewSender(m, reducer)
//		s.Send([]byte("key"), 1)
//		s.End()
//	}
//	net.Run()
//	fmt.Println(col.Result()) // key -> 4, one packet at the reducer
//
// See the examples directory for complete programs and DESIGN.md for the
// architecture.
package daiet

import (
	"fmt"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/transport"
	"github.com/daiet/daiet/internal/wire"
)

// Re-exported identifiers: the façade's vocabulary. Aliases keep the
// internal packages as the single implementation without wrapper
// boilerplate.
type (
	// NodeID identifies a host or switch in a fabric.
	NodeID = netsim.NodeID
	// KV is one key-value pair.
	KV = core.KV
	// AggFuncID names an aggregation function.
	AggFuncID = core.AggFuncID
	// Sender streams one worker's pairs into an aggregation tree.
	Sender = core.Sender
	// Collector receives a tree's (pre-aggregated) output at the reducer.
	Collector = core.Collector
	// TreePlan is a computed aggregation tree.
	TreePlan = controller.TreePlan
	// LinkConfig tunes fabric links.
	LinkConfig = netsim.LinkConfig
	// PairGeometry fixes the on-wire pair layout.
	PairGeometry = wire.PairGeometry
	// Host is an end host attached to the fabric.
	Host = transport.Host
	// Program is the DAIET switch program (statistics access).
	Program = core.Program
	// TreeStats are per-switch per-tree counters.
	TreeStats = core.TreeStats
)

// Aggregation functions.
const (
	AggSum    = core.AggSum
	AggMin    = core.AggMin
	AggMax    = core.AggMax
	AggCount  = core.AggCount
	AggBitOr  = core.AggBitOr
	AggBitAnd = core.AggBitAnd
)

// TreeOptions parameterizes tree installation.
type TreeOptions struct {
	// Agg selects the aggregation function (default AggSum).
	Agg AggFuncID
	// TableSize is the per-switch register array size (default 16384, the
	// paper's configuration).
	TableSize int
	// SpillCap bounds the spillover bucket (default: one packet's worth).
	SpillCap int
}

// Config tunes fabric construction.
type Config struct {
	// Seed drives all randomness (loss injection); same seed, same run.
	Seed uint64
	// Link configures every link (zero value: 10 Gb/s, 1 µs, 256 KiB).
	Link LinkConfig
	// Geometry fixes the pair layout (default: 16-byte keys, paper).
	Geometry PairGeometry
	// MaxPairsPerPacket bounds packetization (default 10, paper).
	MaxPairsPerPacket int
	// SRAMBudget per switch in bytes (default 10 MB, paper's sizing).
	SRAMBudget int
}

func (c Config) withDefaults() Config {
	if c.Geometry.KeyWidth == 0 {
		c.Geometry = wire.DefaultGeometry
	}
	if c.MaxPairsPerPacket == 0 {
		c.MaxPairsPerPacket = wire.DefaultMaxPairs
	}
	if c.SRAMBudget == 0 {
		c.SRAMBudget = 10 << 20
	}
	return c
}

// Network is an assembled fabric: simulator, switches running the DAIET
// program, hosts, and the controller.
type Network struct {
	cfg Config

	Sim        *netsim.Network
	Fabric     *topology.Fabric
	Controller *controller.Controller
	Programs   map[NodeID]*Program

	hosts map[NodeID]*Host
	plans map[uint32]*TreePlan
	muxes map[NodeID]*AckMux
}

// NewSingleSwitch builds the paper's evaluation fabric: n hosts on one
// programmable switch.
func NewSingleSwitch(nHosts int, opts ...Config) (*Network, error) {
	cfg := firstConfig(opts)
	return build(topology.SingleSwitch(nHosts, cfg.Link), cfg)
}

// NewLeafSpine builds a 2-tier Clos fabric.
func NewLeafSpine(leaves, spines, hostsPerLeaf int, opts ...Config) (*Network, error) {
	cfg := firstConfig(opts)
	return build(topology.LeafSpine(leaves, spines, hostsPerLeaf, cfg.Link), cfg)
}

// NewFatTree builds a k-ary fat-tree fabric (k even).
func NewFatTree(k int, opts ...Config) (*Network, error) {
	cfg := firstConfig(opts)
	plan, err := topology.FatTree(k, cfg.Link)
	if err != nil {
		return nil, err
	}
	return build(plan, cfg)
}

func firstConfig(opts []Config) Config {
	var cfg Config
	if len(opts) > 0 {
		cfg = opts[0]
	}
	return cfg.withDefaults()
}

func build(plan *topology.Plan, cfg Config) (*Network, error) {
	sim := netsim.New(cfg.Seed)
	d, err := controller.Deploy(sim, plan, core.ProgramConfig{
		Geometry:          cfg.Geometry,
		MaxPairsPerPacket: cfg.MaxPairsPerPacket,
		SRAMBudget:        cfg.SRAMBudget,
	})
	if err != nil {
		return nil, err
	}
	return &Network{
		cfg:        cfg,
		Sim:        sim,
		Fabric:     d.Fab,
		Controller: d.Ctl,
		Programs:   d.Programs,
		hosts:      d.Hosts,
		plans:      make(map[uint32]*TreePlan),
	}, nil
}

// Hosts returns the fabric's host IDs in ascending order.
func (n *Network) Hosts() []NodeID { return n.Fabric.HostsSorted() }

// Host returns the host endpoint for id, or nil for switches/unknown IDs.
func (n *Network) Host(id NodeID) *Host { return n.hosts[id] }

// InstallTree plans and installs the aggregation tree rooted at reducer
// covering the given mappers, returning the plan. The tree ID equals the
// reducer's node ID.
func (n *Network) InstallTree(reducer NodeID, mappers []NodeID, opt TreeOptions) (*TreePlan, error) {
	return n.installTree(reducer, mappers, opt, false)
}

func (n *Network) installTree(reducer NodeID, mappers []NodeID, opt TreeOptions, reliable bool) (*TreePlan, error) {
	if opt.Agg == 0 {
		opt.Agg = AggSum
	}
	if opt.TableSize == 0 {
		opt.TableSize = 16384
	}
	plan, err := n.Controller.PlanTree(reducer, mappers)
	if err != nil {
		return nil, err
	}
	if err := n.Controller.InstallTree(plan, controller.TreeOptions{
		Agg:       opt.Agg,
		TableSize: opt.TableSize,
		SpillCap:  opt.SpillCap,
		Reliable:  reliable,
	}); err != nil {
		return nil, err
	}
	n.plans[plan.TreeID] = plan
	return plan, nil
}

// UninstallTree removes a previously installed tree.
func (n *Network) UninstallTree(plan *TreePlan) {
	n.Controller.UninstallTree(plan)
	delete(n.plans, plan.TreeID)
}

// NewSender creates a worker-side sender from host `worker` into the tree
// rooted at `reducer`.
func (n *Network) NewSender(worker, reducer NodeID) (*Sender, error) {
	h := n.hosts[worker]
	if h == nil {
		return nil, fmt.Errorf("daiet: %d is not a host", worker)
	}
	return core.NewSender(h, uint32(reducer), reducer, n.cfg.Geometry, n.cfg.MaxPairsPerPacket)
}

// NewCollector creates and attaches a reducer-side collector expecting
// expectedEnds END packets (use TreePlan.RootChildren with aggregation, or
// the mapper count without).
func (n *Network) NewCollector(reducer NodeID, agg AggFuncID, expectedEnds int) (*Collector, error) {
	h := n.hosts[reducer]
	if h == nil {
		return nil, fmt.Errorf("daiet: %d is not a host", reducer)
	}
	f, err := core.FuncByID(agg)
	if err != nil {
		return nil, err
	}
	col := core.NewCollector(uint32(reducer), f, n.cfg.Geometry, expectedEnds)
	col.Attach(h)
	return col, nil
}

// Run drains the simulation. The optional budget bounds event count (0 =
// unbounded); it returns an error only if the budget is exhausted.
func (n *Network) Run(budget ...uint64) error {
	var b uint64
	if len(budget) > 0 {
		b = budget[0]
	}
	return n.Sim.Run(b)
}

// TreeStatsFor aggregates a tree's counters across every switch it spans.
func (n *Network) TreeStatsFor(treeID uint32) TreeStats {
	var total TreeStats
	plan := n.plans[treeID]
	if plan == nil {
		return total
	}
	for _, sw := range plan.SwitchNodes {
		if st, ok := n.Programs[sw].TreeStats(treeID); ok {
			total.DataPacketsIn += st.DataPacketsIn
			total.EndPacketsIn += st.EndPacketsIn
			total.PairsIn += st.PairsIn
			total.PairsStored += st.PairsStored
			total.PairsCombined += st.PairsCombined
			total.PairsSpilled += st.PairsSpilled
			total.SpillPacketsOut += st.SpillPacketsOut
			total.FlushPacketsOut += st.FlushPacketsOut
			total.PairsFlushed += st.PairsFlushed
			total.PairsSpillSent += st.PairsSpillSent
			total.EndPacketsOut += st.EndPacketsOut
			total.FlushesCompleted += st.FlushesCompleted
			total.AcksOut += st.AcksOut
			total.DupsDropped += st.DupsDropped
			total.GapsDropped += st.GapsDropped
			total.UnknownSender += st.UnknownSender
		}
	}
	return total
}
