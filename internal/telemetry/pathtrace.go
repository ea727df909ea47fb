package telemetry

import (
	"encoding/binary"
	"sort"

	"github.com/daiet/daiet/internal/hashing"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/wire"
)

// INT-style path tracing: a seeded, bounded sample of frames carries a
// per-hop record through the fabric. The sampling decision is a pure
// function of frame CONTENT (the DAIET tree/seq identity when the frame is
// a DAIET packet, the Ethernet addresses otherwise), so a frame sampled at
// its first hop is sampled at every hop it transits unmodified — the
// records at successive switches stitch into a path, which is what the
// INT data plane does with its per-hop metadata stack, minus the extra
// header bytes (our "header" is the deterministic sampling rule itself).

// PathTraceConfig sizes the frame sampler.
type PathTraceConfig struct {
	// SampleEvery selects roughly one flow in SampleEvery (0 disables
	// tracing entirely — the hot path then never sees the sampler).
	SampleEvery uint64
	// Seed perturbs the sampling hash so repeated runs can sample
	// different flow subsets while each run stays deterministic.
	Seed uint64
	// Capacity is each node's hop-slab budget in records (default 2048).
	// Slabs are sticky: the first Capacity sampled hops are kept, later
	// ones counted as dropped — a fixed, gated memory budget per node.
	Capacity int
}

func (c PathTraceConfig) withDefaults() PathTraceConfig {
	if c.Capacity == 0 {
		c.Capacity = 2048
	}
	return c
}

// pathTracer implements netsim.FrameTracer. Hop slabs are preallocated
// per node before the run starts, one stream per transmitting node, and
// are merged only when the timeline is built.
type pathTracer struct {
	cfg     PathTraceConfig
	slabs   map[netsim.NodeID]*series
	ordered []*series // ascending node ID, for stable iteration
}

func newPathTracer(cfg PathTraceConfig, nodes []netsim.NodeID) *pathTracer {
	cfg = cfg.withDefaults()
	ids := append([]netsim.NodeID(nil), nodes...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	t := &pathTracer{cfg: cfg, slabs: make(map[netsim.NodeID]*series, len(ids))}
	for _, id := range ids {
		if _, dup := t.slabs[id]; dup {
			continue
		}
		s := newSeries(hopOriginBase|uint64(id), cfg.Capacity, true)
		t.slabs[id] = s
		t.ordered = append(t.ordered, s)
	}
	return t
}

// TraceFrame samples one admission attempt. Runs inline on the send path;
// it only reads the frame's header bytes and appends to the transmitting
// node's own slab.
func (t *pathTracer) TraceFrame(info netsim.FrameTraceInfo, frame []byte) {
	if hashing.Mix64(t.cfg.Seed^flowKey(frame))%t.cfg.SampleEvery != 0 {
		return
	}
	s := t.slabs[info.Src]
	if s == nil {
		return // untracked hop (e.g. a sender's NIC when only switches are traced)
	}
	depth := info.PoolUsedBytes
	if depth < 0 {
		depth = info.QueuedBytes
	}
	s.append(Record{
		At:   info.At,
		Kind: KindHop,
		Node: info.Src,
		K:    int32(info.Class),
		V0:   int64(info.Dst),
		V1:   int64(info.DstPort),
		V2:   int64(depth),
		V3:   int64(info.Size),
		V4:   int64(info.Verdict),
	})
}

// daietOffset is where the DAIET header starts in a standard frame:
// Ethernet, then option-less IPv4, then UDP.
const daietOffset = wire.EthernetHeaderLen + wire.IPv4HeaderLen + wire.UDPHeaderLen

// flowKey derives the sampling identity from frame content alone, so the
// same frame hashes identically at every hop. DAIET packets key on
// (tree, sequence, type) — the aggregation protocol's own flow identity,
// stable across spine transit and ACK reflection. Anything else keys on
// the Ethernet address pair and length, which at least stays stable for
// unmodified forwards. Top bit separates the two namespaces.
func flowKey(frame []byte) uint64 {
	if len(frame) >= daietOffset+wire.DaietHeaderLen &&
		binary.BigEndian.Uint16(frame[12:14]) == wire.EtherTypeIPv4 &&
		frame[wire.EthernetHeaderLen+9] == wire.ProtocolUDP &&
		binary.BigEndian.Uint16(frame[36:38]) == wire.UDPPortDaiet &&
		binary.BigEndian.Uint16(frame[daietOffset:daietOffset+2]) == wire.DaietMagic {
		tree := binary.BigEndian.Uint32(frame[daietOffset+4 : daietOffset+8])
		seq := binary.BigEndian.Uint32(frame[daietOffset+8 : daietOffset+12])
		typ := frame[daietOffset+3]
		return uint64(tree)<<40 | uint64(seq)<<8 | uint64(typ)
	}
	if len(frame) >= wire.EthernetHeaderLen {
		mac := binary.BigEndian.Uint64(frame[0:8]) ^ uint64(binary.BigEndian.Uint32(frame[8:12]))<<17
		return 1<<63 | mac&^(1<<63) ^ uint64(len(frame))
	}
	return 1<<63 | uint64(len(frame))
}
