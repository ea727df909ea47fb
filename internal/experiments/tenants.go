package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/stats"
	"github.com/daiet/daiet/internal/telemetry"
	"github.com/daiet/daiet/internal/topology"
)

// Tenants is the multi-tenant slicing experiment behind the hard-carve
// reserve model: two jobs share one shared-memory switch, each under its
// own pool traffic class (netsim.PoolConfig.Classes, threaded through
// controller.TreeOptions.DataClass/AckClass). Tenant 0, the victim, is a
// latency-sensitive streaming job: a few senders pacing small chunks into
// their aggregation tree, sized to stay inside the class-0 carved floor at
// all times. Tenant 1, the aggressor, is a synchronized incast: many
// senders blasting at t=0 under a high Dynamic-Threshold alpha.
//
// The sweep crosses the victim's carve size with the aggressor's alpha.
// Under the old threshold-exemption model the reserve was advisory — the
// aggressor's borrowed bytes physically consumed the victim's floor, and
// the victim was pool-rejected inside its own reserve (the c0 point
// reproduces that regime: no floor, pure DT). With hard carving, any
// nonzero floor covering the victim's working set drives its drop rate to
// zero regardless of aggressor alpha, which is the property the figure
// demonstrates.
//
// Everything is deterministic in (Seed, config): completions are virtual
// time, per-tenant drop attribution comes from the pool's per-class
// counters, and the figure golden pins the results.

// TenantsConfig sizes one two-tenant trial.
type TenantsConfig struct {
	Seed uint64

	// Victim tenant: paced streaming fan-in (defaults: 4 senders, 240
	// pairs each, chunks of 20 pairs every 100 µs).
	VictimSenders int
	VictimPairs   int
	// VictimReserve is the swept per-port class-0 carve; -1 means an
	// explicit zero floor (0 picks the 2 KiB default, as in IncastConfig).
	VictimReserve int
	VictimAlpha   float64 // default 1

	// Aggressor tenant: synchronized incast (defaults: 16 senders, 600
	// pairs each). Class 1 carries no floor; AggAlpha is swept (default 8).
	// AggVocab (default 8192) is deliberately wider than the 4096-cell
	// aggregation table, so the aggressor's stream compresses poorly: the
	// switch spills continuously toward the aggressor's reducer, whose
	// deliberately slow downlink turns the fan-in into standing pressure
	// on the shared memory — the classic incast regime, inside the pool.
	AggSenders int
	AggPairs   int
	AggAlpha   float64
	AggVocab   int

	Vocab     int // the victim's key space (default 512)
	PoolBytes int // switch shared memory (default 64 KiB)
	// QueueBytes sizes the poolless host uplinks (default 64 MiB).
	QueueBytes int

	// VictimOnly drops the aggressor's traffic and tree: the uncontended
	// reference the completion-inflation metric divides by.
	VictimOnly bool

	// Telemetry, when non-nil, records the shared switch's occupancy
	// timeline during the run — per-class pool gauges are the figure's
	// victim-vs-aggressor money shot. Nil leaves the hot path untouched.
	Telemetry *telemetry.Config
}

func (c TenantsConfig) withDefaults() TenantsConfig {
	if c.VictimSenders == 0 {
		c.VictimSenders = 4
	}
	if c.VictimPairs == 0 {
		c.VictimPairs = 240
	}
	switch {
	case c.VictimReserve == 0:
		c.VictimReserve = 2 << 10
	case c.VictimReserve < 0:
		c.VictimReserve = 0
	}
	if c.VictimAlpha == 0 {
		c.VictimAlpha = 1
	}
	if c.AggSenders == 0 {
		c.AggSenders = 16
	}
	if c.AggPairs == 0 {
		c.AggPairs = 600
	}
	if c.AggAlpha == 0 {
		c.AggAlpha = 8
	}
	if c.AggVocab == 0 {
		c.AggVocab = 8192
	}
	if c.Vocab == 0 {
		c.Vocab = 512
	}
	if c.PoolBytes == 0 {
		c.PoolBytes = 64 << 10
	}
	if c.QueueBytes == 0 {
		c.QueueBytes = 64 << 20
	}
	return c
}

// TenantsResult is one trial's outcome.
type TenantsResult struct {
	Cfg TenantsConfig

	// Per-tenant admission accounting at the pooled switch egress. Each
	// tenant's hosts are disjoint, so its switch ports carry only its own
	// traffic and per-port counters attribute cleanly.
	VictimAttempted, VictimDropped uint64
	AggAttempted, AggDropped       uint64

	// Per-class pool drop attribution (PoolStats.Classes) — cross-checked
	// against the per-port counters above.
	VictimPoolDrops, AggPoolDrops uint64

	// Completions are per-tenant virtual times of the last END.
	VictimCompletion, AggCompletion netsim.Time

	// Timeline is the recorded switch timeline, non-nil only when
	// Cfg.Telemetry asked for one.
	Timeline *telemetry.Timeline
}

// Tenants runs one two-tenant round and verifies both tenants' aggregates
// are exact despite any loss (both trees run the reliable gate).
func Tenants(cfg TenantsConfig) (*TenantsResult, error) { return tenants(cfg, nil) }

// tenants is Tenants with an optional frame tracer on the fabric (see
// incast).
func tenants(cfg TenantsConfig, tracer netsim.FrameTracer) (*TenantsResult, error) {
	cfg = cfg.withDefaults()

	sw := topology.SwitchBase
	plan := &topology.Plan{Name: "tenants", Switches: []netsim.NodeID{sw}}
	addHosts := func(n int, lc netsim.LinkConfig) []netsim.NodeID {
		var hs []netsim.NodeID
		for i := 0; i < n; i++ {
			h := topology.HostBase + netsim.NodeID(len(plan.Hosts))
			plan.Hosts = append(plan.Hosts, h)
			plan.Links = append(plan.Links, topology.Link{A: h, B: sw, Cfg: lc})
			hs = append(hs, h)
		}
		return hs
	}
	fat := netsim.LinkConfig{QueueBytes: cfg.QueueBytes}
	victims := addHosts(cfg.VictimSenders, fat)
	victimReducer := addHosts(1, fat)[0]
	aggs := addHosts(cfg.AggSenders, fat)
	// The aggressor reducer's downlink is the incast bottleneck: 100 Mb/s
	// against 10 Gb/s sender uplinks, so the spill/flush stream backs up
	// inside the switch's shared memory instead of draining instantly.
	aggReducer := addHosts(1, netsim.LinkConfig{
		QueueBytes: cfg.QueueBytes, BandwidthBps: 100_000_000})[0]

	// Class 0: the victim's carved slice. Class 1: the aggressor's
	// floorless DT share. The carve is per (port, class), so every switch
	// port reserves VictimReserve bytes the aggressor physically cannot
	// borrow.
	plan.SetPool(sw, netsim.PoolConfig{
		TotalBytes: cfg.PoolBytes,
		Classes: []netsim.ClassConfig{
			{ReserveBytes: cfg.VictimReserve, Alpha: cfg.VictimAlpha},
			{ReserveBytes: 0, Alpha: cfg.AggAlpha},
		},
	})

	nw := netsim.New(cfg.Seed)
	nw.SetFrameTracer(tracer)
	d, err := controller.Deploy(nw, plan, core.ProgramConfig{})
	if err != nil {
		return nil, err
	}
	res := &TenantsResult{Cfg: cfg}

	// The victim's round, tenant 0: paced fixed-size chunks on each
	// sender's own clock, so the tenant's in-flight bytes stay bounded by
	// design.
	const pace, chunk = 100 * time.Microsecond, 20
	paced := func(r *fanInRound, i int, stream []core.KV, _ *rand.Rand) {
		for c := 0; c*chunk < len(stream); c++ {
			part := stream[c*chunk:]
			if len(part) > chunk {
				part = part[:chunk]
			}
			last := (c+1)*chunk >= len(stream)
			nw.Eng.After(netsim.Time(c)*netsim.Duration(pace), func() { r.feed(i, part, last) })
		}
	}
	victim, err := fanIn(d, victimReducer, victims, controller.TreeOptions{TableSize: 4096, RootReplay: 8},
		4, cfg.Seed, cfg.VictimPairs, cfg.Vocab, paced)
	if err != nil {
		return nil, err
	}
	victim.col.OnComplete = func() { res.VictimCompletion = nw.Now() }
	rounds := []*fanInRound{victim}
	if !cfg.VictimOnly {
		// The aggressor's round, tenant 1: a synchronized incast.
		// RootReplay 512 lets it keep ~68 KB of spill/flush traffic in
		// flight — more than the whole shared memory, so the only thing
		// bounding its occupancy is the pool's admission.
		aggressor, err := fanIn(d, aggReducer, aggs, controller.TreeOptions{
			TableSize: 4096, RootReplay: 512, DataClass: 1, AckClass: 1, Tenant: 1,
		}, 32, cfg.Seed, cfg.AggPairs, cfg.AggVocab, feedAll)
		if err != nil {
			return nil, err
		}
		aggressor.col.OnComplete = func() { res.AggCompletion = nw.Now() }
		rounds = append(rounds, aggressor)
	}

	var rec *telemetry.Recorder
	if cfg.Telemetry != nil {
		rec = telemetry.NewRecorder(nw, *cfg.Telemetry)
		if err := rec.WatchSwitch(sw, d.Programs[sw]); err != nil {
			return nil, fmt.Errorf("experiments: tenants: %w", err)
		}
		rec.EnablePathTrace([]netsim.NodeID{sw})
		rec.Start()
		if err := rec.RunSampled(400_000_000); err != nil {
			return nil, fmt.Errorf("experiments: tenants: %w", err)
		}
		res.Timeline = rec.Timeline()
	} else if err := nw.Run(400_000_000); err != nil {
		return nil, fmt.Errorf("experiments: tenants: %w", err)
	}
	for i, r := range rounds {
		if _, err := r.check(); err != nil {
			return nil, fmt.Errorf("experiments: tenants: %s %w", []string{"victim", "aggressor"}[i], err)
		}
	}

	// Per-tenant admission accounting at the pooled switch egress: the
	// ACK streams back to the tenant's senders plus the flush stream to
	// its reducer.
	account := func(hostsOf []netsim.NodeID, reducer netsim.NodeID) (attempted, dropped uint64) {
		for _, h := range append(append([]netsim.NodeID(nil), hostsOf...), reducer) {
			p := d.Fab.PortTo(sw, h)
			st := nw.PortStats(sw, p)
			attempted += st.TxFrames + st.DropsPool + st.DropsFull + st.DropsLoss
			dropped += st.DropsPool + st.DropsFull + st.DropsLoss
		}
		return attempted, dropped
	}
	res.VictimAttempted, res.VictimDropped = account(victims, victimReducer)
	res.AggAttempted, res.AggDropped = account(aggs, aggReducer)

	ps, ok := nw.PoolStats(sw)
	if !ok || len(ps.Classes) != 2 {
		return nil, fmt.Errorf("experiments: tenants: switch pool missing (%+v)", ps)
	}
	res.VictimPoolDrops = ps.Classes[0].Drops
	res.AggPoolDrops = ps.Classes[1].Drops
	// Attribution consistency: each tenant's hosts are disjoint, so the
	// per-class drop counters must equal the per-port sums.
	if vp := portPoolDrops(nw, d.Fab, sw, victims, victimReducer); vp != res.VictimPoolDrops {
		return nil, fmt.Errorf("experiments: tenants: victim drop attribution: class %d, ports %d",
			res.VictimPoolDrops, vp)
	}
	if ap := portPoolDrops(nw, d.Fab, sw, aggs, aggReducer); ap != res.AggPoolDrops {
		return nil, fmt.Errorf("experiments: tenants: aggressor drop attribution: class %d, ports %d",
			res.AggPoolDrops, ap)
	}
	return res, nil
}

// portPoolDrops sums DropsPool over the switch ports serving one tenant's
// hosts.
func portPoolDrops(nw *netsim.Network, fab *topology.Fabric, sw netsim.NodeID,
	hosts []netsim.NodeID, reducer netsim.NodeID) uint64 {

	var drops uint64
	for _, h := range append(append([]netsim.NodeID(nil), hosts...), reducer) {
		drops += nw.PortStats(sw, fab.PortTo(sw, h)).DropsPool
	}
	return drops
}

// tenantsRefCache memoizes the uncontended victim-only reference runs, one
// per config — every sweep point of a trial divides by the same reference.
var tenantsRefCache sync.Map // TenantsConfig -> *TenantsResult

func tenantsReference(cfg TenantsConfig) (*TenantsResult, error) {
	cfg.VictimOnly = true
	cfg.Telemetry = nil // the reference run is not recorded (and must cache-key cleanly)
	if v, ok := tenantsRefCache.Load(cfg); ok {
		return v.(*TenantsResult), nil
	}
	res, err := Tenants(cfg)
	if err != nil {
		return nil, err
	}
	tenantsRefCache.Store(cfg, res)
	return res, nil
}

func init() {
	// Sweep: victim carve size × aggressor alpha. The c0 row reproduces
	// the pre-carve regime (reserve floors that do not hold); the a8 row
	// isolates how much of the protection the carve provides vs a gentler
	// aggressor threshold.
	// At alpha 1024 the aggressor's DT equilibrium leaves free ≈ q/alpha —
	// a few dozen bytes, less than one frame — so a floorless victim is
	// starved outright, the regime the old threshold-exemption model
	// produced at ANY high alpha once free hit zero.
	sweep := []struct {
		label string
		carve int // -1: explicit zero floor
		alpha float64
	}{
		{"c0/a1024", -1, 1024},
		{"c512/a1024", 512, 1024},
		{"c1K/a1024", 1024, 1024},
		{"c2K/a1024", 2048, 1024},
		{"c2K/a8", 2048, 8},
	}
	pts := make([]Point, len(sweep))
	byLabel := make(map[string]int, len(sweep))
	for i, s := range sweep {
		carve := s.carve
		if carve < 0 {
			carve = 0
		}
		pts[i] = Point{Label: s.label, X: float64(carve)}
		byLabel[s.label] = i
	}
	Register(&Spec{
		Name:   "tenants",
		Title:  "Extension: multi-tenant fabric slicing — hard-carved reserves isolate a streaming victim from an incast aggressor",
		XLabel: "victim carve",
		Points: pts,
		Metrics: []string{
			"victim_drop_rate_pct",
			"victim_completion_inflation_x",
			"victim_pool_drops",
			"aggressor_pool_drops",
			"jain_fairness",
		},
		Run: func(pt Point, tr Trial) (map[string]float64, error) {
			s := sweep[byLabel[pt.Label]]
			base := TenantsConfig{
				Seed:          tr.Seed,
				VictimSenders: scaledInt(4, tr.Scale, 2),
				VictimPairs:   scaledInt(240, tr.Scale, 40),
				AggSenders:    scaledInt(16, tr.Scale, 4),
				AggPairs:      scaledInt(600, tr.Scale, 80),
				VictimReserve: s.carve,
				AggAlpha:      s.alpha,
			}
			res, err := Tenants(base)
			if err != nil {
				return nil, err
			}
			ref, err := tenantsReference(base)
			if err != nil {
				return nil, err
			}
			// Jain fairness over each tenant's delivered fraction at the
			// shared switch: 1.0 when the slice protects both equally.
			fair := jainIndex([]float64{
				stats.Ratio(float64(res.VictimAttempted-res.VictimDropped), float64(res.VictimAttempted)),
				stats.Ratio(float64(res.AggAttempted-res.AggDropped), float64(res.AggAttempted)),
			})
			return map[string]float64{
				"victim_drop_rate_pct":          100 * stats.Ratio(float64(res.VictimDropped), float64(res.VictimAttempted)),
				"victim_completion_inflation_x": stats.Ratio(float64(res.VictimCompletion), float64(ref.VictimCompletion)),
				"victim_pool_drops":             float64(res.VictimPoolDrops),
				"aggressor_pool_drops":          float64(res.AggPoolDrops),
				"jain_fairness":                 fair,
			}, nil
		},
	})
}
