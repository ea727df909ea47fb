package experiments

import (
	"fmt"
	"time"

	"github.com/daiet/daiet/internal/netsim"
)

// The syncproto figure is the engine-scheduling proof behind the
// per-channel horizon redesign: the same fabric-scale incast, executed
// under the two conservative synchronization protocols the partitioned
// engine supports — the old global-minimum lookahead (every domain advances
// to the fleet-wide earliest event plus the shortest cut link) and
// per-channel earliest-input-time horizons (each domain bounded only by
// the lookahead paths that can actually reach it; empty peer heaps count
// as +∞).
//
// The axis crosses the cut-link latency profile with the protocol and the
// domain count. The "short" points shorten exactly ONE core link to 200ns
// while the rest of the core sits at 20µs — the adversarial regime for the
// global scheme, whose single lookahead collapses to the shortest cut link
// fleet-wide. Per-channel horizons confine that cost to the one channel
// that has it, which shows up directly in the metrics: fewer barriers,
// fewer (and wider) execution windows, fewer idle windows. The "long"
// points (uniform 20µs core) are the control: both protocols should look
// similar there. frames_total is the determinism cross-check — the
// workload column must be byte-identical across every point that shares a
// latency profile, whatever the protocol or cut (the registry conformance
// tests assert it; TestSyncProtoCrossPointIdentical pins it here).
//
// All five metrics are deterministic functions of (seed, config): the
// sync counters are cut-dependent, like megaincast's peak_arena_kb, but
// each point pins its engine configuration (workers, protocol, latency),
// so the figure golden pins every column.

// syncProtoPoint pins one (latency profile, domains, protocol) cell.
type syncProtoPoint struct {
	label   string
	short   bool // one 200ns core link among the 20µs ones
	workers int
	proto   netsim.SyncProtocol
}

var syncProtoPoints = []syncProtoPoint{
	{"short-2w-global", true, 2, netsim.SyncGlobal},
	{"short-2w-eit", true, 2, netsim.SyncEIT},
	{"short-4w-global", true, 4, netsim.SyncGlobal},
	{"short-4w-eit", true, 4, netsim.SyncEIT},
	{"long-4w-global", false, 4, netsim.SyncGlobal},
	{"long-4w-eit", false, 4, netsim.SyncEIT},
}

// syncProtoConfig sizes one trial: the bigincast workload at moderate
// scale, with a real-latency core so the rack cut has long-haul channels.
// Racks stays at 4 even under -scale so the cut always runs along the core
// tier (intra-rack cuts would put zero-latency host links in the cut and
// measure a different protocol regime than the figure claims).
func syncProtoConfig(seed uint64, scale float64, pt syncProtoPoint) BigIncastConfig {
	cfg := BigIncastConfig{
		Seed:            seed,
		Senders:         scaledInt(128, scale, 32),
		Racks:           4,
		Spines:          1,
		PairsPerSender:  scaledInt(40, scale, 10),
		Vocab:           scaledInt(2048, scale, 256),
		TableSize:       scaledInt(512, scale, 64),
		SimWorkers:      pt.workers,
		CorePropagation: 20 * time.Microsecond,
		SyncProtocol:    pt.proto,
	}
	if pt.short {
		cfg.ShortCutPropagation = 200 * time.Nanosecond
	}
	return cfg
}

func init() {
	pts := make([]Point, len(syncProtoPoints))
	for i, p := range syncProtoPoints {
		pts[i] = Point{Label: p.label, X: float64(i)}
	}
	Register(&Spec{
		Name: "syncproto",
		Title: "Engine: conservative sync protocols — global-min lookahead vs per-channel EIT horizons " +
			"across cut-link latency (one 200ns link among 20µs), domains and protocol",
		XLabel: "cut / engine",
		Points: pts,
		Metrics: []string{
			"sync_barriers",
			"sync_windows",
			"sync_idle_windows",
			"mean_horizon_us",
			"frames_total",
		},
		Run: func(p Point, tr Trial) (map[string]float64, error) {
			var sp syncProtoPoint
			found := false
			for i := range syncProtoPoints {
				if pts[i].Label == p.Label {
					sp, found = syncProtoPoints[i], true
				}
			}
			if !found {
				return nil, fmt.Errorf("experiments: syncproto: unknown point %q", p.Label)
			}
			// The point pins the engine cut and protocol; tr.SimWorkers and
			// tr.Recut are deliberately ignored — the axis IS the engine knob.
			res, err := BigIncast(syncProtoConfig(tr.Seed, tr.Scale, sp))
			if err != nil {
				return nil, err
			}
			if res.Domains != sp.workers {
				return nil, fmt.Errorf("experiments: syncproto: %s ran on %d domains, want %d",
					p.Label, res.Domains, sp.workers)
			}
			return map[string]float64{
				"sync_barriers":     float64(res.Sync.Barriers),
				"sync_windows":      float64(res.Sync.Windows),
				"sync_idle_windows": float64(res.Sync.IdleWindows),
				"mean_horizon_us":   float64(res.Sync.MeanHorizon()) / 1e3,
				"frames_total":      float64(res.Frames),
			}, nil
		},
	})
}
