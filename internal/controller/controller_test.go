package controller

import (
	"fmt"
	"strings"
	"testing"

	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/transport"
)

func buildFixture(t *testing.T, plan *topology.Plan) (*Controller, *topology.Fabric, map[netsim.NodeID]*core.Program) {
	t.Helper()
	nw := netsim.New(1)
	programs := make(map[netsim.NodeID]*core.Program)
	mkSwitch := func(id netsim.NodeID) netsim.Node {
		p, err := core.NewProgram(core.ProgramConfig{})
		if err != nil {
			t.Fatal(err)
		}
		programs[id] = p
		return p.Switch()
	}
	mkHost := func(netsim.NodeID) netsim.Node { return transport.NewHost() }
	fab := plan.Realize(nw, mkSwitch, mkHost)
	return New(fab, programs), fab, programs
}

func TestPlanTreeSingleSwitch(t *testing.T) {
	plan := topology.SingleSwitch(5, netsim.LinkConfig{})
	ctl, _, _ := buildFixture(t, plan)
	reducer := plan.Hosts[4]
	mappers := plan.Hosts[:4]
	tp, err := ctl.PlanTree(reducer, mappers)
	if err != nil {
		t.Fatal(err)
	}
	if tp.TreeID != uint32(reducer) || tp.Root != reducer {
		t.Fatalf("identity: %+v", tp)
	}
	if len(tp.SwitchNodes) != 1 {
		t.Fatalf("switches %v", tp.SwitchNodes)
	}
	sw := tp.SwitchNodes[0]
	if tp.Children[sw] != 4 {
		t.Fatalf("switch children %d", tp.Children[sw])
	}
	if tp.RootChildren() != 1 {
		t.Fatalf("root children %d", tp.RootChildren())
	}
	if tp.Depth() != 2 {
		t.Fatalf("depth %d", tp.Depth())
	}
	// Every mapper's parent is the switch; the switch's parent the reducer.
	for _, m := range mappers {
		if tp.Parent[m] != sw {
			t.Fatalf("mapper %d parent %d", m, tp.Parent[m])
		}
	}
	if tp.Parent[sw] != reducer {
		t.Fatalf("switch parent %d", tp.Parent[sw])
	}
}

func TestPlanTreeSpanningProperties(t *testing.T) {
	plan, err := topology.FatTree(4, netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, _, _ := buildFixture(t, plan)
	reducer := plan.Hosts[15]
	mappers := plan.Hosts[:12]
	tp, err := ctl.PlanTree(reducer, mappers)
	if err != nil {
		t.Fatal(err)
	}

	// Invariant 3 (DESIGN.md): acyclic, covers all mappers, parents chain
	// to the root.
	for _, m := range mappers {
		seen := map[netsim.NodeID]bool{}
		cur := m
		for cur != reducer {
			if seen[cur] {
				t.Fatalf("cycle at %d", cur)
			}
			seen[cur] = true
			next, ok := tp.Parent[cur]
			if !ok {
				t.Fatalf("node %d has no parent", cur)
			}
			cur = next
		}
	}

	// Children counts equal the in-degree of the parent relation.
	inDeg := map[netsim.NodeID]int{}
	for child, parent := range tp.Parent {
		_ = child
		inDeg[parent]++
	}
	for node, n := range tp.Children {
		if inDeg[node] != n {
			t.Fatalf("children[%d]=%d but in-degree %d", node, n, inDeg[node])
		}
	}

	// Total tree edges = nodes - 1 (tree property over participating set).
	nodes := map[netsim.NodeID]bool{reducer: true}
	for child, parent := range tp.Parent {
		nodes[child] = true
		nodes[parent] = true
	}
	if len(tp.Parent) != len(nodes)-1 {
		t.Fatalf("edges %d nodes %d: not a tree", len(tp.Parent), len(nodes))
	}
}

func TestPlanTreeErrors(t *testing.T) {
	plan := topology.SingleSwitch(3, netsim.LinkConfig{})
	ctl, _, _ := buildFixture(t, plan)
	if _, err := ctl.PlanTree(plan.Hosts[0], nil); err == nil {
		t.Fatal("no mappers must fail")
	}
	if _, err := ctl.PlanTree(plan.Hosts[0], []netsim.NodeID{plan.Hosts[0]}); err == nil {
		t.Fatal("mapper == reducer must fail")
	}
	if _, err := ctl.PlanTree(netsim.NodeID(999), []netsim.NodeID{plan.Hosts[0]}); err == nil {
		t.Fatal("unreachable reducer must fail")
	}
}

func TestInstallTreeConfiguresEverySwitch(t *testing.T) {
	plan := topology.LeafSpine(2, 2, 2, netsim.LinkConfig{})
	ctl, _, programs := buildFixture(t, plan)
	mappers := []netsim.NodeID{plan.Hosts[0], plan.Hosts[1], plan.Hosts[2]}
	reducer := plan.Hosts[3]
	tp, err := ctl.PlanTree(reducer, mappers)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.InstallTree(tp, TreeOptions{Agg: core.AggSum, TableSize: 128}); err != nil {
		t.Fatal(err)
	}
	for _, sw := range tp.SwitchNodes {
		if _, ok := programs[sw].TreeStats(tp.TreeID); !ok {
			t.Fatalf("switch %d not configured", sw)
		}
	}
	// Uninstall clears everything.
	ctl.UninstallTree(tp)
	for _, sw := range tp.SwitchNodes {
		if _, ok := programs[sw].TreeStats(tp.TreeID); ok {
			t.Fatalf("switch %d still configured", sw)
		}
		if programs[sw].Registers().Used() != 0 {
			t.Fatalf("switch %d leaked SRAM", sw)
		}
	}
}

func TestInstallTreeValidation(t *testing.T) {
	plan := topology.SingleSwitch(2, netsim.LinkConfig{})
	ctl, _, _ := buildFixture(t, plan)
	tp, err := ctl.PlanTree(plan.Hosts[1], []netsim.NodeID{plan.Hosts[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.InstallTree(tp, TreeOptions{Agg: core.AggSum, TableSize: 0}); err == nil {
		t.Fatal("zero table size must fail")
	}
}

func TestInstallRoutingCoversAllSwitches(t *testing.T) {
	plan, err := topology.FatTree(4, netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, _, _ := buildFixture(t, plan)
	if err := ctl.InstallRouting(); err != nil {
		t.Fatal(err)
	}
}

func TestProgramAccessor(t *testing.T) {
	plan := topology.SingleSwitch(2, netsim.LinkConfig{})
	ctl, _, programs := buildFixture(t, plan)
	sw := plan.Switches[0]
	if ctl.Program(sw) != programs[sw] {
		t.Fatal("accessor mismatch")
	}
	if ctl.Program(netsim.NodeID(12345)) != nil {
		t.Fatal("unknown switch must be nil")
	}
}

// TestDeployErrorBeforeSideEffects: an infeasible program config (more
// pairs per packet than the parse budget holds) comes back as Deploy's
// error before the network gains a single node.
func TestDeployErrorBeforeSideEffects(t *testing.T) {
	plan := topology.LeafSpine(2, 2, 2, netsim.LinkConfig{})
	nw := netsim.New(1)
	_, err := Deploy(nw, plan, core.ProgramConfig{MaxPairsPerPacket: 1000})
	if err == nil || !strings.Contains(err.Error(), "parse bytes") {
		t.Fatalf("Deploy error %v, want the program's parse-budget error", err)
	}
	for _, id := range append(append([]netsim.NodeID(nil), plan.Switches...), plan.Hosts...) {
		if nw.Node(id) != nil {
			t.Fatalf("node %d added before the error", id)
		}
	}
}

// TestInstallRoutingErrorDeterministic: with a host no switch can reach,
// every switch fails to route it; the error names the lowest switch ID on
// every run, not whichever switch map iteration visited first.
func TestInstallRoutingErrorDeterministic(t *testing.T) {
	plan := topology.LeafSpine(2, 2, 2, netsim.LinkConfig{})
	plan.Hosts = append(plan.Hosts, topology.HostBase+netsim.NodeID(len(plan.Hosts))) // no link
	want := fmt.Sprintf("controller: switch %d cannot reach host %d", plan.Switches[0], plan.Hosts[len(plan.Hosts)-1])
	for run := 0; run < 20; run++ {
		_, err := Deploy(netsim.New(1), plan, core.ProgramConfig{})
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %q", run, err, want)
		}
	}
}
