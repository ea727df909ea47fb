package netsim

import "fmt"

// INT-style frame tracing: an optional observer sees every transmit-side
// admission attempt — accepted or dropped — with the queue/pool depth the
// admission decision was judged against. The hook exists for the
// telemetry layer (internal/telemetry) to sample per-frame path records
// without netsim knowing anything about wire formats or sampling policy.
//
// Contract:
//
//   - The tracer runs inline on the send path.
//   - FrameTraceInfo is passed by value and the frame slice must not be
//     retained or modified — ownership stays with the network (accepted
//     frames) or dies with the drop. A tracer that needs bytes must copy
//     them (the telemetry sampler only reads header fields inline).
//   - A nil tracer costs one predictable branch per send; the steady-state
//     hot path stays 0 allocs/op (TestSendTracerOffZeroAlloc pins it).

// FrameVerdict classifies one admission attempt at a transmitting port.
type FrameVerdict uint8

const (
	FrameAccepted FrameVerdict = iota
	FrameDropDown              // link administratively down
	FrameDropPool              // shared-pool DT rejection
	FrameDropFull              // private per-port FIFO overflow
	FrameDropLoss              // injected random loss
)

// String names the verdict for timeline rendering.
func (v FrameVerdict) String() string {
	switch v {
	case FrameAccepted:
		return "accepted"
	case FrameDropDown:
		return "drop-down"
	case FrameDropPool:
		return "drop-pool"
	case FrameDropFull:
		return "drop-full"
	case FrameDropLoss:
		return "drop-loss"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// FrameTraceInfo describes one admission attempt. All fields are values;
// nothing references network internals.
type FrameTraceInfo struct {
	At      Time   // transmitting node's virtual time
	Src     NodeID // transmitting node
	Dst     NodeID // destination node
	DstPort int    // destination ingress port
	Class   int    // traffic class (pool-folded when the node is pooled)
	Size    int    // frame length in bytes

	// QueuedBytes is the transmit queue depth the admission decision saw
	// (after lazy drains): the private FIFO occupancy on poolless nodes.
	QueuedBytes int
	// PoolUsedBytes is the node-wide shared-pool occupancy at admission,
	// or -1 when the node has no pool.
	PoolUsedBytes int

	Verdict FrameVerdict
}

// FrameTracer observes admission attempts. See the contract above.
type FrameTracer interface {
	TraceFrame(info FrameTraceInfo, frame []byte)
}

// SetFrameTracer installs (or, with nil, removes) the network's frame
// tracer.
func (nw *Network) SetFrameTracer(t FrameTracer) {
	nw.tracer = t
}

// traceFrame reports one admission attempt. Called from send, only when a
// tracer is installed; kept out of line so the traced path never bloats
// the hot path's inlining budget.
func (nw *Network) traceFrame(hl *halfLink, class, size int, now Time, verdict FrameVerdict, frame []byte) {
	pooled := -1
	if hl.pool != nil {
		pooled = hl.pool.used
	}
	nw.tracer.TraceFrame(FrameTraceInfo{
		At:            now,
		Src:           hl.srcNode,
		Dst:           hl.dstNode,
		DstPort:       hl.dstPort,
		Class:         class,
		Size:          size,
		QueuedBytes:   hl.queued,
		PoolUsedBytes: pooled,
		Verdict:       verdict,
	}, frame)
}

// NodeQueueDepth returns the transmit-queue occupancy of (id, portNum) in
// bytes, drained to the network clock: the private FIFO depth on poolless
// ports, the port's contribution to the shared pool otherwise.
func (nw *Network) NodeQueueDepth(id NodeID, portNum int) int {
	ports := nw.ports[id]
	if portNum < 0 || portNum >= len(ports) {
		return 0
	}
	hl := ports[portNum].out
	hl.drainTo(nw.Now())
	return hl.queued
}
