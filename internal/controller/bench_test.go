package controller

import (
	"testing"

	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/transport"
)

// BenchmarkInstallRouting builds the megaincast fabric — 17 racks of 64
// hosts under 2 spines, every switch on a shared-memory pool — and installs
// every switch's host routes: the set-up cost a fan-in trial pays before
// its first frame. Run with -benchmem.
func BenchmarkInstallRouting(b *testing.B) {
	plan := topology.LeafSpine(17, 2, 64, netsim.LinkConfig{QueueBytes: 64 << 20})
	plan.SetSwitchPools(netsim.PoolConfig{TotalBytes: 512 << 10, ReserveBytes: 1 << 10, Alpha: 2})
	mkHost := func(netsim.NodeID) netsim.Node { return transport.NewHost() }
	b.ReportAllocs()
	for b.Loop() {
		programs := make(map[netsim.NodeID]*core.Program, len(plan.Switches))
		fab := plan.Realize(netsim.New(7), func(id netsim.NodeID) netsim.Node {
			p, err := core.NewProgram(core.ProgramConfig{})
			if err != nil {
				b.Fatal(err)
			}
			programs[id] = p
			return p.Switch()
		}, mkHost)
		if err := New(fab, programs).InstallRouting(); err != nil {
			b.Fatal(err)
		}
	}
}
