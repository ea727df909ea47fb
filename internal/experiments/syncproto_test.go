package experiments

import (
	"testing"

	"github.com/daiet/daiet/internal/netsim"
)

// syncProtoSmoke runs one syncproto point at smoke scale and returns the
// workload result. Points pin their own engine config, so the Trial only
// carries seed and scale.
func syncProtoSmoke(t *testing.T, pt syncProtoPoint) *BigIncastResult {
	t.Helper()
	res, err := BigIncast(syncProtoConfig(goldenCfg.Seed, goldenCfg.Scale, pt))
	if err != nil {
		t.Fatalf("%s: %v", pt.label, err)
	}
	if res.Domains != pt.workers {
		t.Fatalf("%s: ran on %d domains, want %d", pt.label, res.Domains, pt.workers)
	}
	return res
}

// TestSyncProtoCrossPointIdentical pins the figure's determinism claim:
// the sync protocol and the domain count are engine knobs, so every
// workload-level output must be byte-identical across points that share a
// latency profile. Only the cut-dependent sync counters may differ.
func TestSyncProtoCrossPointIdentical(t *testing.T) {
	results := make([]*BigIncastResult, len(syncProtoPoints))
	for i, pt := range syncProtoPoints {
		results[i] = syncProtoSmoke(t, pt)
	}
	ref := map[bool]*BigIncastResult{}
	for i, pt := range syncProtoPoints {
		r := results[i]
		if ref[pt.short] == nil {
			ref[pt.short] = r
			continue
		}
		want := ref[pt.short]
		if r.Frames != want.Frames || r.FramesAttempted != want.FramesAttempted ||
			r.Events != want.Events || r.Transmissions != want.Transmissions ||
			r.Completion != want.Completion {
			t.Fatalf("%s diverged from its latency group: frames %d/%d attempted %d/%d events %d/%d tx %d/%d done %v/%v",
				pt.label, r.Frames, want.Frames, r.FramesAttempted, want.FramesAttempted,
				r.Events, want.Events, r.Transmissions, want.Transmissions,
				r.Completion, want.Completion)
		}
	}
	// The latency axis lives in the engine, not the workload (one short
	// link off the completion critical path): the profiles must still
	// drive the global protocol into visibly different sync regimes, or
	// the short/long axis measures nothing.
	var globalShort, globalLong netsim.SyncStats
	for i, pt := range syncProtoPoints {
		if pt.proto == netsim.SyncGlobal && pt.workers == 4 {
			if pt.short {
				globalShort = results[i].Sync
			} else {
				globalLong = results[i].Sync
			}
		}
	}
	if globalShort.Windows <= globalLong.Windows {
		t.Fatalf("latency axis degenerate: global windows short=%d !> long=%d",
			globalShort.Windows, globalLong.Windows)
	}
}

// TestSyncProtoEITBeatsGlobalOnFigure is the figure-level version of the
// acceptance criterion: on the short-cut-link topology the per-channel EIT
// protocol must execute measurably fewer, wider windows than the global
// minimum, at identical workload output. On the uniform long core the two
// protocols may differ only modestly.
func TestSyncProtoEITBeatsGlobalOnFigure(t *testing.T) {
	short := map[string]*BigIncastResult{}
	long := map[string]*BigIncastResult{}
	for _, pt := range syncProtoPoints {
		if pt.workers != 4 {
			continue
		}
		res := syncProtoSmoke(t, pt)
		if pt.short {
			short[protoName(pt)] = res
		} else {
			long[protoName(pt)] = res
		}
	}
	eit, global := short["eit"].Sync, short["global"].Sync
	if eit.Barriers >= global.Barriers {
		t.Fatalf("short cut: EIT barriers %d !< global %d", eit.Barriers, global.Barriers)
	}
	if eit.Windows >= global.Windows {
		t.Fatalf("short cut: EIT windows %d !< global %d", eit.Windows, global.Windows)
	}
	if eit.MeanHorizon() <= global.MeanHorizon() {
		t.Fatalf("short cut: EIT mean horizon %v !> global %v", eit.MeanHorizon(), global.MeanHorizon())
	}
	// Control: on the uniform core the global minimum is already near the
	// per-channel bound, so EIT must not be WORSE there.
	leit, lglobal := long["eit"].Sync, long["global"].Sync
	if leit.Windows > lglobal.Windows {
		t.Fatalf("long cut: EIT windows %d > global %d", leit.Windows, lglobal.Windows)
	}
}

func protoName(pt syncProtoPoint) string {
	if pt.proto == netsim.SyncEIT {
		return "eit"
	}
	return "global"
}
