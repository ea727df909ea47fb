// daietctl is the controller's inspection tool: it builds a fabric plan,
// computes an aggregation tree for a mapper/reducer placement (the paper's
// Figure 2), renders it, and reports the per-switch SRAM the tree would
// consume.
//
// Usage:
//
//	daietctl tree -topology fat-tree -k 4 -mappers 0-11 -reducer 15
//	daietctl tree -topology leaf-spine -leaves 3 -spines 2 -hosts-per-leaf 4 \
//	  -mappers 0,1,2,4,5 -reducer 8 -table-size 16384
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/wire"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 || os.Args[1] != "tree" {
		log.Fatal("usage: daietctl tree [flags]")
	}
	fs := flag.NewFlagSet("tree", flag.ExitOnError)
	var (
		topo         = fs.String("topology", "single", "single | leaf-spine | fat-tree")
		nHosts       = fs.Int("hosts", 8, "hosts (single topology)")
		k            = fs.Int("k", 4, "fat-tree arity")
		leaves       = fs.Int("leaves", 3, "leaf switches (leaf-spine)")
		spines       = fs.Int("spines", 2, "spine switches (leaf-spine)")
		hostsPerLeaf = fs.Int("hosts-per-leaf", 4, "hosts per leaf (leaf-spine)")
		mappersFlag  = fs.String("mappers", "0-3", "mapper host indices (comma list and a-b ranges)")
		reducerFlag  = fs.Int("reducer", 4, "reducer host index")
		tableSize    = fs.Int("table-size", 16384, "register cells per tree per switch")
		keyWidth     = fs.Int("key-width", 16, "fixed key width in bytes")
	)
	_ = fs.Parse(os.Args[2:])

	var plan *topology.Plan
	var err error
	switch *topo {
	case "single":
		plan = topology.SingleSwitch(*nHosts, netsim.LinkConfig{})
	case "leaf-spine":
		plan = topology.LeafSpine(*leaves, *spines, *hostsPerLeaf, netsim.LinkConfig{})
	case "fat-tree":
		plan, err = topology.FatTree(*k, netsim.LinkConfig{})
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown topology %q", *topo)
	}

	d, err := controller.Deploy(netsim.New(0), plan, core.ProgramConfig{})
	if err != nil {
		log.Fatal(err)
	}

	idx, err := parseIndices(*mappersFlag)
	if err != nil {
		log.Fatal(err)
	}
	hosts := d.Fab.HostsSorted()
	var mappers []netsim.NodeID
	for _, i := range idx {
		if i < 0 || i >= len(hosts) {
			log.Fatalf("mapper index %d outside [0, %d)", i, len(hosts))
		}
		mappers = append(mappers, hosts[i])
	}
	if *reducerFlag < 0 || *reducerFlag >= len(hosts) {
		log.Fatalf("reducer index %d outside [0, %d)", *reducerFlag, len(hosts))
	}
	reducer := hosts[*reducerFlag]

	tp, err := d.Ctl.PlanTree(reducer, mappers)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fabric: %s (%d hosts, %d switches)\n", plan.Name, len(plan.Hosts), len(plan.Switches))
	fmt.Printf("aggregation tree %d: root=host[%d] depth=%d, %d switches\n\n",
		tp.TreeID, *reducerFlag, tp.Depth(), len(tp.SwitchNodes))
	render(tp, reducer)

	geom := wire.PairGeometry{KeyWidth: *keyWidth}
	perTree := treeSRAM(geom, *tableSize)
	fmt.Printf("\nper-switch SRAM for this tree: %.1f KiB (table %d cells, %dB keys)\n",
		float64(perTree)/1024, *tableSize, *keyWidth)
	fmt.Printf("rule of thumb: a 10 MB register budget fits ~%d such trees per switch\n",
		(10<<20)/perTree)
}

// treeSRAM mirrors core's register allocation arithmetic.
func treeSRAM(g wire.PairGeometry, tableSize int) int {
	spillCap := 10
	return g.KeyWidth*tableSize + // keys
		wire.ValueWidth*tableSize + // values
		1*tableSize + // valid bits (byte-granular model)
		4*tableSize + 4 + // index stack + top
		g.PairWidth()*spillCap + 2 + // spillover + count
		4 + 4 // remaining children + seq
}

// render prints the tree as an indented hierarchy.
func render(tp *controller.TreePlan, root netsim.NodeID) {
	children := map[netsim.NodeID][]netsim.NodeID{}
	for child, parent := range tp.Parent {
		children[parent] = append(children[parent], child)
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	var walk func(n netsim.NodeID, depth int)
	walk = func(n netsim.NodeID, depth int) {
		kind := "host"
		if topology.IsSwitchID(n) {
			kind = "switch"
		}
		role := ""
		switch {
		case n == root:
			role = "  <- reducer (tree root)"
		case len(children[n]) == 0:
			role = "  <- mapper"
		}
		fmt.Printf("%s%s %d (children: %d)%s\n",
			strings.Repeat("  ", depth), kind, n, tp.Children[n], role)
		for _, c := range children[n] {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
}

// parseIndices parses "0,1,4-7" into a sorted index list.
func parseIndices(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if a, b, ok := strings.Cut(part, "-"); ok {
			lo, err := strconv.Atoi(a)
			if err != nil {
				return nil, fmt.Errorf("bad range %q: %w", part, err)
			}
			hi, err := strconv.Atoi(b)
			if err != nil {
				return nil, fmt.Errorf("bad range %q: %w", part, err)
			}
			if hi < lo {
				return nil, fmt.Errorf("range %q is inverted", part)
			}
			for i := lo; i <= hi; i++ {
				out = append(out, i)
			}
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad index %q: %w", part, err)
		}
		out = append(out, v)
	}
	sort.Ints(out)
	return out, nil
}
