package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/daiet/daiet/internal/telemetry"
)

// timelineTrial is the trial every registered timeline's golden section
// is recorded at.
var timelineTrial = Trial{Seed: 11, Scale: 0.08}

// timelineSection names a timeline's golden section.
func timelineSection(name string) string { return refSection("timeline-" + name) }

// timelineDigest renders a timeline's deterministic section as its line
// count and FNV-64a: the golden pins every probe series and sampled hop
// record without storing them. The hash skips the first line, the format
// version, so a format change that keeps every record keeps the digest.
func timelineDigest(tl *telemetry.Timeline) string {
	b := tl.DeterministicBytes()
	_, body, _ := bytes.Cut(b, []byte("\n"))
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf("lines: %d\nfnv64a: %#016x\n", bytes.Count(b, []byte("\n")), h.Sum64())
}

// TestTimelinesGolden records every registered timeline — probe series
// AND sampled per-frame hop traces — and checks its deterministic section
// against its golden digest. The engine-diagnostics section is excluded.
func TestTimelinesGolden(t *testing.T) {
	specs := TimelineSpecs()
	if len(specs) < 2 {
		t.Fatalf("timeline registry has %d entries, want >= 2", len(specs))
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tl, err := spec.Run(timelineTrial)
			if err != nil {
				t.Fatal(err)
			}
			if len(tl.Records) == 0 {
				t.Fatal("timeline recorded nothing")
			}
			checkGoldenParts(t, timelineSection(spec.Name), timelineDigest(tl), fieldOf, nil)
		})
	}
}

// TestTelemetryObserverEffect pins the observer-neutrality contract: a
// recorded run's frame-level outcome is identical to the unrecorded run.
// (Events and Completion legitimately differ — probe timers are real
// engine events and the final drain lands on a probe tick — so the
// comparison covers the workload counters only.)
func TestTelemetryObserverEffect(t *testing.T) {
	cfg := BigIncastConfig{
		Seed: 9, Senders: 16, Racks: 2, PairsPerSender: 30,
		Vocab: 320, TableSize: 64,
	}
	plain, err := BigIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Telemetry = artifactTelemetry(cfg.Seed)
	recorded, err := BigIncast(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if recorded.Timeline == nil || len(recorded.Timeline.Records) == 0 {
		t.Fatal("recorded run produced no timeline")
	}
	render := func(r *BigIncastResult) string {
		return fmt.Sprintf("att=%d drop=%d tx=%d retx=%d pairs=%d swretx=%d stalls=%d hw=%v fair=%v frames=%d",
			r.FramesAttempted, r.FramesDropped, r.Transmissions, r.Retransmissions,
			r.PairsSent, r.SwitchRetransmissions, r.FlushStalls,
			r.PoolHighWaterPct, r.PortFairness, r.Frames)
	}
	if p, r := render(plain), render(recorded); p != r {
		t.Fatalf("telemetry perturbed the workload:\n  off: %s\n   on: %s", p, r)
	}
}

// TestTimelineHasFigureSubstance spot-checks the tenants artifact: the
// per-class gauges the figure plots must actually move — the aggressor
// class has to reach a nonzero high-water, and hop records must include
// pool-level drop verdicts during the incast burst.
func TestTimelineHasFigureSubstance(t *testing.T) {
	spec := LookupTimeline("tenants")
	if spec == nil {
		t.Fatal("tenants timeline spec missing")
	}
	tl, err := spec.Run(timelineTrial)
	if err != nil {
		t.Fatal(err)
	}
	var aggHW int64
	hops := 0
	for i := range tl.Records {
		r := &tl.Records[i]
		switch {
		case r.Kind == telemetry.KindClass && r.K == 1: // aggressor class
			if r.V1 > aggHW {
				aggHW = r.V1
			}
		case r.Kind == telemetry.KindHop:
			hops++
		}
	}
	if aggHW == 0 {
		t.Fatal("aggressor class high-water never moved")
	}
	if hops == 0 {
		t.Fatal("no sampled hop records")
	}
}
