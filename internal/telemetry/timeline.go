package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/daiet/daiet/internal/netsim"
)

// Timeline is one recorded run, merged and ready for export. Records is
// the deterministic section; Engine is the arena-occupancy section,
// excluded from DeterministicBytes.
type Timeline struct {
	Cadence netsim.Time
	Records []Record
	Dropped uint64 // records lost to ring overwrite / slab overflow, all streams
	Engine  []EngineSample
}

// sortRecords orders recs by the simulator's event key. (At, Origin, Seq) is unique across streams — Origin namespaces the
// stream, Seq counts within it — so the order is total and stable.
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		return a.Seq < b.Seq
	})
}

// timelineMagic heads the text serialization; the version suffix gates
// format evolution, so a reader rejects a timeline it cannot parse. v3
// dropped the partitioned engine's domain, re-cut and synchronization
// counters from engine lines.
const timelineMagic = "daiet-timeline v3"

// WriteTo serializes the timeline in its line-oriented text format:
//
//	daiet-timeline v3
//	cadence <ns>
//	dropped <n>
//	r <at> <origin> <seq> <kind> <node> <k> <v0> <v1> <v2> <v3> <v4> <"note">
//	...
//	engine <at> <framelive> <framepeak> <timerpeak> <bytes>
//	...
//
// Record lines come first, in (At, Origin, Seq) order; engine lines last.
func (tl *Timeline) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(written int, err error) error {
		n += int64(written)
		return err
	}
	if err := count(fmt.Fprintf(bw, "%s\ncadence %d\ndropped %d\n", timelineMagic, tl.Cadence, tl.Dropped)); err != nil {
		return n, err
	}
	for i := range tl.Records {
		r := &tl.Records[i]
		if err := count(fmt.Fprintf(bw, "r %d %d %d %s %d %d %d %d %d %d %d %q\n",
			r.At, r.Origin, r.Seq, r.Kind, r.Node, r.K, r.V0, r.V1, r.V2, r.V3, r.V4, r.Note)); err != nil {
			return n, err
		}
	}
	for _, e := range tl.Engine {
		if err := count(fmt.Fprintf(bw, "engine %d %d %d %d %d\n",
			e.At, e.FrameLive, e.FramePeak, e.TimerPeak, e.Bytes)); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Bytes renders the full timeline, engine section included.
func (tl *Timeline) Bytes() []byte {
	var buf bytes.Buffer
	_, _ = tl.WriteTo(&buf)
	return buf.Bytes()
}

// DeterministicBytes renders only the deterministic section — header and
// record lines, no engine lines. The figure golden pins exactly this.
func (tl *Timeline) DeterministicBytes() []byte {
	stripped := Timeline{Cadence: tl.Cadence, Records: tl.Records, Dropped: tl.Dropped}
	return stripped.Bytes()
}

// ReadTimeline parses the text format WriteTo emits.
func ReadTimeline(r io.Reader) (*Timeline, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("telemetry: empty timeline")
	}
	if got := sc.Text(); got != timelineMagic {
		return nil, fmt.Errorf("telemetry: bad timeline header %q (want %q)", got, timelineMagic)
	}
	tl := &Timeline{}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		verb, rest, _ := strings.Cut(line, " ")
		var err error
		switch verb {
		case "cadence":
			var v int64
			v, err = strconv.ParseInt(rest, 10, 64)
			tl.Cadence = netsim.Time(v)
		case "dropped":
			tl.Dropped, err = strconv.ParseUint(rest, 10, 64)
		case "r":
			err = parseRecordLine(rest, tl)
		case "engine":
			var e EngineSample
			_, err = fmt.Sscanf(rest, "%d %d %d %d %d",
				&e.At, &e.FrameLive, &e.FramePeak, &e.TimerPeak, &e.Bytes)
			tl.Engine = append(tl.Engine, e)
		default:
			err = fmt.Errorf("unknown verb %q", verb)
		}
		if err != nil {
			return nil, fmt.Errorf("telemetry: timeline line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading timeline: %w", err)
	}
	return tl, nil
}

// parseRecordLine parses the 12 fixed fields then the quoted note (which
// may contain spaces, so it cannot go through Fields/Sscanf).
func parseRecordLine(rest string, tl *Timeline) error {
	fields := strings.SplitN(rest, " ", 12)
	if len(fields) != 12 {
		return fmt.Errorf("want 12 record fields, got %d", len(fields))
	}
	var r Record
	var err error
	geti := func(s string) int64 {
		if err != nil {
			return 0
		}
		var v int64
		v, err = strconv.ParseInt(s, 10, 64)
		return v
	}
	r.At = netsim.Time(geti(fields[0]))
	r.Origin, _ = strconv.ParseUint(fields[1], 10, 64)
	r.Seq, _ = strconv.ParseUint(fields[2], 10, 64)
	if err == nil {
		r.Kind, err = parseKind(fields[3])
	}
	r.Node = netsim.NodeID(geti(fields[4]))
	r.K = int32(geti(fields[5]))
	r.V0 = geti(fields[6])
	r.V1 = geti(fields[7])
	r.V2 = geti(fields[8])
	r.V3 = geti(fields[9])
	r.V4 = geti(fields[10])
	if err != nil {
		return err
	}
	if r.Note, err = strconv.Unquote(fields[11]); err != nil {
		return fmt.Errorf("bad note %s: %w", fields[11], err)
	}
	tl.Records = append(tl.Records, r)
	return nil
}
