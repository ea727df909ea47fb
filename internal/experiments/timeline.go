package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/telemetry"
)

// Timeline specs are the observability counterpart of the figure
// registry: each entry runs one representative recorded trial of a
// figure's workload and returns its telemetry timeline. cmd/daiet-bench
// -telemetry writes each as <dir>/<name>_timeline.txt and cmd/daiet-trace
// renders those into Chrome trace JSON / CSV; the figure golden pins each
// entry's DeterministicBytes as a line count and hash.

// TimelineSpec declares one recordable workload.
type TimelineSpec struct {
	// Name keys the registry and names the artifact file.
	Name string
	// Title is a one-line description for listings.
	Title string
	// Run executes one recorded trial and returns its timeline.
	Run func(tr Trial) (*telemetry.Timeline, error)
}

var timelineRegistry = map[string]*TimelineSpec{}

// RegisterTimeline adds a TimelineSpec; duplicates panic at init time.
func RegisterTimeline(s *TimelineSpec) {
	if s.Name == "" || s.Run == nil {
		panic("experiments: RegisterTimeline: incomplete spec")
	}
	if _, dup := timelineRegistry[s.Name]; dup {
		panic(fmt.Sprintf("experiments: duplicate timeline spec %q", s.Name))
	}
	timelineRegistry[s.Name] = s
}

// TimelineSpecs returns every registered timeline spec sorted by name.
func TimelineSpecs() []*TimelineSpec {
	out := make([]*TimelineSpec, 0, len(timelineRegistry))
	for _, s := range timelineRegistry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupTimeline returns the TimelineSpec registered under name, or nil.
func LookupTimeline(name string) *TimelineSpec { return timelineRegistry[name] }

// artifactTelemetry is the recording configuration the timeline artifacts
// use: a 100 µs probe cadence with a deep ring (the tenants run spans a
// few tens of milliseconds of virtual time), and 1-in-16 path sampling.
func artifactTelemetry(seed uint64) *telemetry.Config {
	return &telemetry.Config{
		Cadence:  netsim.Duration(100 * time.Microsecond),
		Capacity: 65536,
		PathTrace: telemetry.PathTraceConfig{
			SampleEvery: 16,
			Seed:        seed,
			Capacity:    4096,
		},
	}
}

func init() {
	RegisterTimeline(&TimelineSpec{
		Name:  "tenants",
		Title: "victim-vs-aggressor pool occupancy at the shared switch (c2K/a1024 sweep point)",
		Run: func(tr Trial) (*telemetry.Timeline, error) {
			res, err := Tenants(TenantsConfig{
				Seed:          tr.Seed,
				VictimSenders: scaledInt(4, tr.Scale, 2),
				VictimPairs:   scaledInt(240, tr.Scale, 40),
				AggSenders:    scaledInt(16, tr.Scale, 4),
				AggPairs:      scaledInt(600, tr.Scale, 80),
				VictimReserve: 2048,
				AggAlpha:      1024,
				Telemetry:     artifactTelemetry(tr.Seed),
			})
			if err != nil {
				return nil, err
			}
			return res.Timeline, nil
		},
	})
	RegisterTimeline(&TimelineSpec{
		Name:  "megaincast",
		Title: "leaf/spine pool occupancy and sampled frame paths through the reliable tree",
		Run: func(tr Trial) (*telemetry.Timeline, error) {
			cfg := megaIncastConfig(tr.Seed, tr.Scale)
			cfg.Telemetry = artifactTelemetry(tr.Seed)
			res, err := BigIncast(cfg)
			if err != nil {
				return nil, err
			}
			return res.Timeline, nil
		},
	})
}
