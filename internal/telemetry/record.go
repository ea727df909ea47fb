// Package telemetry is the simulator's deterministic observability layer:
// sim-time probes sampled on a fixed virtual-clock cadence, INT-style
// sampled per-frame path records, and a merged timeline export — the
// time-resolved view the end-of-run snapshot counters (PoolStats,
// LinkStats, TreeStats) cannot give.
//
// Everything here obeys the engine's determinism contract. Records carry
// telemetry's own stream key (At, Origin, Seq): At is virtual time,
// Origin names the deterministic stream that produced the record (a
// node's probe, a node's hop sampler, or origin 0 for control-plane
// samples), and Seq is that stream's own counter, so the merged timeline
// has one total order (the figure golden in internal/experiments pins each
// registered timeline's hash). Arena occupancy — how the engine stored the
// run rather than what the fabric did — lives in a separate engine section
// excluded from DeterministicBytes.
package telemetry

import (
	"fmt"

	"github.com/daiet/daiet/internal/netsim"
)

// Kind classifies one timeline record.
type Kind uint8

const (
	// KindPool is one node's shared-pool gauge: V0 used bytes, V1
	// committed bytes, V2 high-water, V3 cumulative pool drops.
	KindPool Kind = iota
	// KindClass is one (node, class) gauge, K = class index: V0 used
	// bytes, V1 class high-water, V2 cumulative class drops, V3 the
	// class's hard-carved reserve.
	KindClass
	// KindPort is one (node, port) transmit gauge, K = port: V0 queue
	// depth in bytes, V1 frames accepted since the previous sample, V2
	// frames dropped since the previous sample, V3 cumulative accepted.
	KindPort
	// KindTree is one (node, tree) aggregation gauge, K = tree ID: V0
	// occupied register cells, V1 spillover-bucket pairs, V2 retained
	// replay packets, V3 cumulative flush packets out, V4 cumulative
	// replay retransmissions.
	KindTree
	// KindControl is a control-point sample between RunUntil windows:
	// V0 pending events, V1 total events processed.
	KindControl
	// KindMonitor is a controller liveness/failover observation: Node and
	// V0 name the component (switch, or link endpoints), Note the event.
	KindMonitor
	// KindHop is one sampled frame's admission attempt at a transmit
	// port, K = traffic class: V0 destination node, V1 destination port,
	// V2 queue/pool depth at admission, V3 frame size, V4 the
	// netsim.FrameVerdict.
	KindHop
)

var kindNames = [...]string{"pool", "class", "port", "tree", "control", "monitor", "hop"}

// String renders the kind's timeline token.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// parseKind inverts String for the timeline reader.
func parseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown record kind %q", s)
}

// hopOriginBase offsets hop-stream origins above the 24-bit node ID space
// so a node's hop sampler and its probe merge as distinct streams (probe
// origin = node ID, control origin = 0).
const hopOriginBase uint64 = 1 << 32

// Record is one timeline entry. Fixed-shape by design: five value slots
// whose meaning the Kind pins down, so the whole probe path appends into
// preallocated rings without per-sample indirection.
type Record struct {
	At     netsim.Time
	Origin uint64
	Seq    uint64
	Kind   Kind
	Node   netsim.NodeID
	K      int32 // class / port / tree discriminator (kind-specific)
	V0     int64
	V1     int64
	V2     int64
	V3     int64
	V4     int64
	Note   string // static label, control/monitor records only
}

// series is one deterministic record stream: a preallocated buffer with a
// per-stream sequence counter. Two retention modes: ring (overwrite the
// oldest record — probe series, where the recent window matters) and
// sticky (keep the first cap records — hop slabs, whose budget is a fixed
// gate and whose ramp-up is the interesting part). Both overflow modes
// are deterministic because the stream itself is.
type series struct {
	origin  uint64
	seq     uint64 // records ever written; the next record's Seq is seq+1
	buf     []Record
	sticky  bool
	dropped uint64
}

func newSeries(origin uint64, capacity int, sticky bool) *series {
	return &series{origin: origin, buf: make([]Record, 0, capacity), sticky: sticky}
}

// append stamps r with the stream's (origin, seq) key and stores it.
func (s *series) append(r Record) {
	s.seq++
	r.Origin, r.Seq = s.origin, s.seq
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, r)
		return
	}
	s.dropped++
	if s.sticky {
		return
	}
	// Ring mode: the slot of the oldest retained record is seq mod cap.
	s.buf[int((s.seq-1)%uint64(len(s.buf)))] = r
}

// snapshot appends the stream's retained records to dst in Seq order.
func (s *series) snapshot(dst []Record) []Record {
	n := len(s.buf)
	if n == 0 {
		return dst
	}
	if s.sticky || s.seq <= uint64(n) {
		return append(dst, s.buf...)
	}
	head := int(s.seq % uint64(n)) // oldest retained record
	dst = append(dst, s.buf[head:]...)
	return append(dst, s.buf[:head]...)
}
