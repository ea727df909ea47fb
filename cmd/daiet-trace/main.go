// daiet-trace renders a recorded fabric timeline (the daiet-timeline v3
// text format written by daiet-bench -telemetry or telemetry.Timeline's
// WriteTo) into figure-ready forms:
//
//	daiet-trace -in tenants_timeline.txt -json tenants_timeline.json
//	daiet-trace -in tenants_timeline.txt -csv tenants_timeline.csv
//
// -json emits Chrome trace-event JSON (load in chrome://tracing or
// https://ui.perfetto.dev): per-node counter tracks for the pool, class,
// port and tree gauges, instant events for sampled frame hops and
// controller failover observations, and a "fabric control" process for the
// control-point samples and the engine's arena gauges. Virtual timestamps map to trace microseconds, so the
// viewer's timeline IS the simulation clock.
//
// -csv emits one flat row per record (at_ns, origin, seq, kind, node, k,
// v0..v4, note) for ad-hoc plotting; the kind documentation in
// internal/telemetry/record.go names each value slot.
//
// Both renderings are deterministic functions of the input bytes: records
// are already in (At, Origin, Seq) order and JSON maps marshal with sorted
// keys, so re-rendering a byte-identical timeline yields byte-identical
// artifacts.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/telemetry"
)

var (
	inPath   = flag.String("in", "", "input timeline (daiet-timeline v3 text, from daiet-bench -telemetry)")
	jsonPath = flag.String("json", "", "write Chrome trace-event JSON to this path")
	csvPath  = flag.String("csv", "", "write flat per-record CSV to this path")
)

func main() {
	log.SetFlags(0)
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	if *inPath == "" {
		return fmt.Errorf("daiet-trace: -in is required")
	}
	if *jsonPath == "" && *csvPath == "" {
		return fmt.Errorf("daiet-trace: nothing to do (want -json and/or -csv)")
	}
	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	tl, err := telemetry.ReadTimeline(f)
	if err != nil {
		return err
	}
	if *jsonPath != "" {
		blob, err := chromeTrace(tl)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d records)\n", *jsonPath, len(tl.Records))
	}
	if *csvPath != "" {
		out, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := writeCSV(out, tl); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d records)\n", *csvPath, len(tl.Records))
	}
	return nil
}

// controlPID is the synthetic process ID grouping fabric-wide records
// (control-point samples, engine arena gauges) apart from the per-node
// tracks, which use pid = node ID + 1 (trace viewers reserve pid 0).
const controlPID = 1 << 30

// traceEvent is one Chrome trace-event object. Counter events ("C") plot
// args as stacked per-(pid, name) tracks; instant events ("i") mark one
// moment; metadata events ("M") name the synthetic processes.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds of virtual time
	PID   uint64         `json:"pid"`
	TID   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace renders the timeline as a Chrome trace-event document.
func chromeTrace(tl *telemetry.Timeline) ([]byte, error) {
	events := make([]traceEvent, 0, len(tl.Records)+len(tl.Engine)+8)
	named := map[uint64]bool{}
	process := func(pid uint64, name string) {
		if !named[pid] {
			named[pid] = true
			events = append(events, traceEvent{
				Name: "process_name", Phase: "M", PID: pid,
				Args: map[string]any{"name": name},
			})
		}
	}
	process(controlPID, "fabric control")

	for i := range tl.Records {
		r := &tl.Records[i]
		pid := uint64(r.Node) + 1
		ev := traceEvent{TS: float64(r.At) / 1e3, PID: pid, TID: 0}
		switch r.Kind {
		case telemetry.KindPool:
			process(pid, fmt.Sprintf("node %d", r.Node))
			ev.Name, ev.Phase = "pool", "C"
			ev.Args = map[string]any{"used": r.V0, "committed": r.V1, "high_water": r.V2, "drops": r.V3}
		case telemetry.KindClass:
			process(pid, fmt.Sprintf("node %d", r.Node))
			ev.Name, ev.Phase = fmt.Sprintf("class %d", r.K), "C"
			ev.Args = map[string]any{"used": r.V0, "high_water": r.V1, "drops": r.V2, "reserve": r.V3}
		case telemetry.KindPort:
			process(pid, fmt.Sprintf("node %d", r.Node))
			ev.Name, ev.Phase = fmt.Sprintf("port %d", r.K), "C"
			ev.Args = map[string]any{"depth": r.V0, "tx_delta": r.V1, "drop_delta": r.V2, "tx_total": r.V3}
		case telemetry.KindTree:
			process(pid, fmt.Sprintf("node %d", r.Node))
			ev.Name, ev.Phase = fmt.Sprintf("tree %d", r.K), "C"
			ev.Args = map[string]any{"cells": r.V0, "spill": r.V1, "replay": r.V2, "flush_out": r.V3, "root_retx": r.V4}
		case telemetry.KindControl:
			ev.Name, ev.Phase, ev.PID = "events", "C", controlPID
			ev.Args = map[string]any{"pending": r.V0, "processed": r.V1}
		case telemetry.KindMonitor:
			ev.Name, ev.Phase, ev.PID, ev.Scope = r.Note, "i", controlPID, "p"
			ev.Args = map[string]any{"node": r.Node, "peer": r.V0}
		case telemetry.KindHop:
			process(pid, fmt.Sprintf("node %d", r.Node))
			verdict := netsim.FrameVerdict(r.V4).String()
			ev.Name, ev.Phase, ev.TID, ev.Scope = "hop "+verdict, "i", uint64(r.V1)+1, "t"
			ev.Args = map[string]any{
				"class": r.K, "dst": r.V0, "dst_port": r.V1,
				"depth": r.V2, "size": r.V3, "verdict": verdict,
			}
		default:
			return nil, fmt.Errorf("daiet-trace: unrenderable record kind %v", r.Kind)
		}
		events = append(events, ev)
	}
	for _, es := range tl.Engine {
		events = append(events, traceEvent{
			Name: "engine", Phase: "C", TS: float64(es.At) / 1e3, PID: controlPID,
			Args: map[string]any{
				"frame_live": es.FrameLive, "frame_peak": es.FramePeak,
				"timer_peak": es.TimerPeak, "arena_bytes": es.Bytes,
			},
		})
	}

	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"otherData": map[string]any{
			"format":          "daiet-timeline v3",
			"cadence_ns":      int64(tl.Cadence),
			"dropped_records": tl.Dropped,
		},
	}
	blob, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// writeCSV renders the flat per-record table.
func writeCSV(f *os.File, tl *telemetry.Timeline) error {
	w := csv.NewWriter(f)
	if err := w.Write([]string{"at_ns", "origin", "seq", "kind", "node", "k", "v0", "v1", "v2", "v3", "v4", "note"}); err != nil {
		return err
	}
	for i := range tl.Records {
		r := &tl.Records[i]
		row := []string{
			strconv.FormatInt(int64(r.At), 10),
			strconv.FormatUint(r.Origin, 10),
			strconv.FormatUint(r.Seq, 10),
			r.Kind.String(),
			strconv.FormatUint(uint64(r.Node), 10),
			strconv.FormatInt(int64(r.K), 10),
			strconv.FormatInt(r.V0, 10),
			strconv.FormatInt(r.V1, 10),
			strconv.FormatInt(r.V2, 10),
			strconv.FormatInt(r.V3, 10),
			strconv.FormatInt(r.V4, 10),
			r.Note,
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
