package experiments

import (
	"testing"

	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
)

// renderMegaIncast runs one engine point of the megaincast workload at
// seed 11, scale 0.08, checks the point ran the engine it pins, and
// renders every counter of the trial result with the engine-shape fields
// (domain count, arena occupancy, re-cut count, sync diagnostics) blanked.
func renderMegaIncast(t *testing.T, pt megaIncastPoint) string {
	t.Helper()
	res, err := BigIncast(megaIncastConfig(11, 0.08, pt))
	if err != nil {
		t.Fatalf("%s: %v", pt.label, err)
	}
	if pt.workers > 1 && res.Domains < 2 {
		t.Fatalf("%s ran %d domains", pt.label, res.Domains)
	}
	if pt.recut && res.Recuts == 0 {
		t.Fatalf("%s applied no dynamic re-cut", pt.label)
	}
	if !pt.recut && res.Recuts != 0 {
		t.Fatalf("%s applied %d re-cuts without a policy", pt.label, res.Recuts)
	}
	res.ArenaStats = netsim.ArenaStats{}
	res.Domains = 0
	res.Recuts = 0
	res.Sync = netsim.SyncStats{}
	res.Cfg.SimWorkers = 0
	res.Cfg.Recut = topology.RecutConfig{}
	return fieldLines(*res)
}

// TestMegaIncastCrossPointIdentical is the figure's acceptance criterion:
// the identical workload, run at 2 and 4 event-engine domains and at 4
// domains with dynamic re-partitioning live, matches the sequential
// point's golden reference — every counter of the trial result, not just
// the registry metrics.
func TestMegaIncastCrossPointIdentical(t *testing.T) {
	for _, pt := range megaIncastPoints[1:] {
		t.Run(pt.label, func(t *testing.T) {
			checkGolden(t, refSection("megaincast"), renderMegaIncast(t, pt))
		})
	}
}
