package daiet

import (
	"fmt"

	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/trace"
)

// This file exposes the extensions through the façade: the loss-recovery
// protocol (the paper's stated future work), control-plane tree draining,
// and per-switch event tracing.

// Re-exported extension types.
type (
	// ReliableSender is the loss-tolerant worker endpoint (go-back-N over
	// DAIET sequence numbers; see internal/core/reliable.go).
	ReliableSender = core.ReliableSender
	// ReliableConfig tunes window, RTO, retry budget and round epoch.
	ReliableConfig = core.ReliableConfig
	// AckMux routes switch ACKs to a worker's reliable senders.
	AckMux = core.AckMux
	// TraceRing is a bounded ring of switch pipeline events.
	TraceRing = trace.Ring
	// TraceEvent is one recorded pipeline event.
	TraceEvent = trace.Event
)

// InstallReliableTree is InstallTree with the loss-recovery gate enabled:
// the tree's switches accept each mapper's packets in sequence order,
// acknowledge cumulatively, and de-duplicate retransmissions, keeping
// aggregation exactly-once. Each switch's valid senders are its own tree
// children: mappers on edge switches, upstream switches on aggregation
// levels (their flush streams are sequenced too, so the in-order gate
// passes them). Use NewReliableSender for the worker side.
func (n *Network) InstallReliableTree(reducer NodeID, mappers []NodeID, opt TreeOptions) (*TreePlan, error) {
	return n.installTree(reducer, mappers, opt, true)
}

// NewReliableSender creates the loss-tolerant counterpart of NewSender and
// registers it on the worker's ACK mux (created on first use).
func (n *Network) NewReliableSender(worker, reducer NodeID, cfg ReliableConfig) (*ReliableSender, error) {
	h := n.hosts[worker]
	if h == nil {
		return nil, fmt.Errorf("daiet: %d is not a host", worker)
	}
	s, err := core.NewReliableSender(h, uint32(reducer), reducer,
		n.cfg.Geometry, n.cfg.MaxPairsPerPacket, cfg)
	if err != nil {
		return nil, err
	}
	if n.muxes == nil {
		n.muxes = make(map[NodeID]*AckMux)
	}
	mux, ok := n.muxes[worker]
	if !ok {
		mux = core.NewAckMux(h)
		n.muxes[worker] = mux
	}
	mux.Register(s)
	return s, nil
}

// DrainTree reads back and clears every pair still held in the tree's
// switch registers — the control-plane recovery path for cancelled or
// reconfigured jobs. Pairs are returned per switch in tree order.
func (n *Network) DrainTree(plan *TreePlan) ([]KV, error) {
	var out []KV
	for _, sw := range plan.SwitchNodes {
		prog := n.Programs[sw]
		if prog == nil {
			continue
		}
		kvs, err := prog.DrainTree(plan.TreeID)
		if err != nil {
			return out, err
		}
		out = append(out, kvs...)
	}
	return out, nil
}

// EnableTracing attaches a fresh event ring of the given capacity to every
// switch and returns the rings keyed by switch ID.
func (n *Network) EnableTracing(capacity int) map[NodeID]*TraceRing {
	out := make(map[NodeID]*TraceRing, len(n.Programs))
	for id, prog := range n.Programs {
		ring := trace.NewRing(capacity)
		prog.Switch().Trace = ring
		out[id] = ring
	}
	return out
}
