package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/telemetry"
)

func sampleTimeline() *telemetry.Timeline {
	return &telemetry.Timeline{
		Cadence: 50_000,
		Records: []telemetry.Record{
			{At: 0, Origin: 0, Seq: 1, Kind: telemetry.KindControl, V0: 3, V1: 120},
			{At: 50_000, Origin: 1, Seq: 1, Kind: telemetry.KindPool, Node: 1, V0: 4096, V1: 8192, V2: 4096},
			{At: 50_000, Origin: 1, Seq: 2, Kind: telemetry.KindClass, Node: 1, K: 1, V0: 512, V1: 512, V3: 2048},
			{At: 50_000, Origin: 1, Seq: 3, Kind: telemetry.KindPort, Node: 1, K: 0, V0: 1500, V1: 10, V3: 10},
			{At: 50_000, Origin: 1, Seq: 4, Kind: telemetry.KindTree, Node: 1, K: 7, V0: 12, V3: 4},
			{At: 60_000, Origin: 1<<32 | 1, Seq: 1, Kind: telemetry.KindHop, Node: 1, K: 1,
				V0: 2, V1: 0, V2: 4096, V3: 512, V4: int64(netsim.FrameDropPool)},
			{At: 70_000, Origin: 0, Seq: 2, Kind: telemetry.KindMonitor, Node: 4, V0: 5, Note: "link-flapped"},
		},
		Engine: []telemetry.EngineSample{{At: 70_000, FrameLive: 3, FramePeak: 9, TimerPeak: 2, Bytes: 4096}},
	}
}

func TestChromeTraceRendersEveryKind(t *testing.T) {
	tl := sampleTimeline()
	blob, err := chromeTrace(tl)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	byPhase := map[string]int{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		byPhase[ev["ph"].(string)]++
		names[ev["name"].(string)] = true
	}
	// 5 counter records + 1 engine sample, 2 instants (hop + monitor),
	// 2 process_name metadata rows (node 1, fabric control).
	if byPhase["C"] != 6 || byPhase["i"] != 2 || byPhase["M"] != 2 {
		t.Fatalf("phase census = %v, want C:6 i:2 M:2", byPhase)
	}
	for _, want := range []string{"pool", "class 1", "port 0", "tree 7", "events", "engine",
		"hop drop-pool", "link-flapped"} {
		if !names[want] {
			t.Fatalf("missing event %q in %v", want, names)
		}
	}
	// Virtual nanoseconds map to trace microseconds.
	if ts := doc.TraceEvents[len(doc.TraceEvents)-1]["ts"].(float64); ts != 70 {
		t.Fatalf("engine sample ts = %v µs, want 70", ts)
	}
	// Deterministic rendering: same input, same bytes.
	again, err := chromeTrace(tl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatal("chromeTrace is not deterministic")
	}
}

func TestCSVRoundTripThroughTimelineFormat(t *testing.T) {
	// Render the sample through the on-disk timeline format first, exactly
	// like the daiet-bench -telemetry → daiet-trace pipeline.
	tl := sampleTimeline()
	dir := t.TempDir()
	path := filepath.Join(dir, "tl.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	parsed, err := telemetry.ReadTimeline(in)
	if err != nil {
		t.Fatal(err)
	}

	out, err := os.Create(filepath.Join(dir, "tl.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeCSV(out, parsed); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "tl.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) != 1+len(tl.Records) {
		t.Fatalf("csv has %d lines, want header + %d records", len(lines), len(tl.Records))
	}
	if lines[0] != "at_ns,origin,seq,kind,node,k,v0,v1,v2,v3,v4,note" {
		t.Fatalf("unexpected header %q", lines[0])
	}
	if want := "60000,4294967297,1,hop,1,1,2,0,4096,512,2,"; lines[6] != want {
		t.Fatalf("hop row = %q, want %q", lines[6], want)
	}
	if !strings.HasSuffix(lines[7], "link-flapped") {
		t.Fatalf("monitor row lost its note: %q", lines[7])
	}
}
