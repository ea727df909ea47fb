// Package transport provides end-host networking over the netsim fabric:
// an unreliable datagram service (udplite — the carrier of the DAIET
// protocol) and a reliable byte-stream service (tcplite — the paper's TCP
// baseline).
//
// Hosts are netsim Nodes with a single uplink port (port 0 in every
// topology this repository builds). All I/O is callback-based because the
// simulation is single-threaded discrete-event: there is no blocking Read.
package transport

import (
	"fmt"
	"time"

	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/wire"
)

// DatagramHandler receives one UDP payload. The payload aliases the frame
// buffer and is owned by the callee.
type DatagramHandler func(src wire.IPv4Addr, srcPort uint16, payload []byte)

// FrameHook observes every frame a host receives, before demux. Counters
// and traffic probes (the experiment's measurement points) hang here.
type FrameHook func(frame []byte)

// HostStats counts a host's traffic as seen at its NIC.
type HostStats struct {
	FramesRx uint64
	FramesTx uint64
	BytesRx  uint64
	BytesTx  uint64
	UDPRx    uint64
	TCPRx    uint64
	BadRx    uint64 // undecodable or unexpected frames
}

// Host is an end host attached to the fabric.
type Host struct {
	nw *netsim.Network
	id netsim.NodeID

	udpHandlers map[uint16]DatagramHandler
	conns       map[connKey]*Conn
	listeners   map[uint16]func(*Conn)
	nextPort    uint16

	Stats  HostStats
	OnRx   FrameHook // optional
	uplink int

	// Straggler injection: while paused, outbound frames are parked in
	// order instead of transmitted (a stalled sender process whose NIC
	// still receives); Resume releases them back-to-back. Toggled only at
	// quiescent fault-injection control points.
	paused bool
	parked [][]byte
}

// NewHost creates a host; add it to a network with Network.AddNode (or let
// topology.Realize do it).
func NewHost() *Host {
	return &Host{
		udpHandlers: make(map[uint16]DatagramHandler),
		conns:       make(map[connKey]*Conn),
		listeners:   make(map[uint16]func(*Conn)),
		nextPort:    49152,
	}
}

// Attach implements netsim.Node.
func (h *Host) Attach(nw *netsim.Network, id netsim.NodeID) { h.nw, h.id = nw, id }

// ID returns the host's fabric node ID.
func (h *Host) ID() netsim.NodeID { return h.id }

// Network returns the fabric the host is attached to.
func (h *Host) Network() *netsim.Network { return h.nw }

// HandleUDP registers handler for datagrams addressed to port. A nil
// handler deregisters.
func (h *Host) HandleUDP(port uint16, handler DatagramHandler) {
	if handler == nil {
		delete(h.udpHandlers, port)
		return
	}
	h.udpHandlers[port] = handler
}

// ephemeralPort allocates a local port for outbound connections.
func (h *Host) ephemeralPort() uint16 {
	p := h.nextPort
	h.nextPort++
	if h.nextPort == 0 {
		h.nextPort = 49152
	}
	return p
}

// After schedules fn on the fabric's clock, satisfying core.TimerCarrier
// for the reliability extension.
func (h *Host) After(d time.Duration, fn func()) {
	h.nw.Eng.After(netsim.Duration(d), fn)
}

// Now returns the current virtual time.
func (h *Host) Now() netsim.Time { return h.nw.Now() }

// txAccount records one egress frame in the NIC counters; every transmit
// path (single-frame and burst) funnels through it.
func (h *Host) txAccount(frame []byte) {
	h.Stats.FramesTx++
	h.Stats.BytesTx += uint64(len(frame))
}

// Pause stalls the host's sending side: subsequent outbound frames are
// parked until Resume. Inbound frames and timers keep running (the NIC and
// clock outlive a stalled process). Fault injection calls this only while
// the network is quiescent.
func (h *Host) Pause() { h.paused = true }

// Paused reports whether the host's sending side is stalled.
func (h *Host) Paused() bool { return h.paused }

// Resume releases a paused host: every parked frame is transmitted
// back-to-back in its original order, then normal sending resumes.
func (h *Host) Resume() {
	if !h.paused {
		return
	}
	h.paused = false
	if len(h.parked) > 0 {
		frames := h.parked
		h.parked = nil
		for _, f := range frames {
			h.txAccount(f)
		}
		h.nw.SendBurst(h.id, h.uplink, frames)
	}
}

// SendFrame transmits a prebuilt Ethernet frame out of the uplink.
func (h *Host) SendFrame(frame []byte) {
	if h.paused {
		h.parked = append(h.parked, frame)
		return
	}
	h.txAccount(frame)
	h.nw.Send(h.id, h.uplink, frame)
}

// SendUDP builds and transmits one UDP datagram to dst.
func (h *Host) SendUDP(dst netsim.NodeID, srcPort, dstPort uint16, payload []byte) {
	h.SendFrame(h.buildUDPFrame(dst, srcPort, dstPort, payload))
}

// SendUDPBurst builds and transmits one UDP datagram per payload to dst,
// handing the whole batch to the fabric in one call (core.BurstCarrier).
// Frames are emitted in payload order, exactly as repeated SendUDP would.
func (h *Host) SendUDPBurst(dst netsim.NodeID, srcPort, dstPort uint16, payloads [][]byte) {
	if len(payloads) == 0 {
		return
	}
	frames := make([][]byte, len(payloads))
	for i, p := range payloads {
		frames[i] = h.buildUDPFrame(dst, srcPort, dstPort, p)
	}
	if h.paused {
		h.parked = append(h.parked, frames...)
		return
	}
	for _, f := range frames {
		h.txAccount(f)
	}
	h.nw.SendBurst(h.id, h.uplink, frames)
}

func (h *Host) buildUDPFrame(dst netsim.NodeID, srcPort, dstPort uint16, payload []byte) []byte {
	buf := wire.NewBuffer(wire.DefaultHeadroom, len(payload))
	buf.AppendBytes(payload)
	u := wire.UDP{SrcPort: srcPort, DstPort: dstPort}
	u.SerializeTo(buf)
	ip := wire.IPv4{
		Protocol: wire.ProtocolUDP,
		Src:      wire.IPFromNode(uint32(h.id)),
		Dst:      wire.IPFromNode(uint32(dst)),
		TTL:      wire.DefaultTTL,
	}
	ip.SerializeTo(buf)
	e := wire.Ethernet{
		Dst:       wire.MACFromNode(uint32(dst)),
		Src:       wire.MACFromNode(uint32(h.id)),
		EtherType: wire.EtherTypeIPv4,
	}
	e.SerializeTo(buf)
	return buf.Bytes()
}

// HandleFrame implements netsim.Node: decode and demux one received frame.
func (h *Host) HandleFrame(inPort int, frame []byte) {
	h.Stats.FramesRx++
	h.Stats.BytesRx += uint64(len(frame))
	if h.OnRx != nil {
		h.OnRx(frame)
	}

	var eth wire.Ethernet
	rest, err := eth.DecodeFrom(frame)
	if err != nil || eth.EtherType != wire.EtherTypeIPv4 {
		h.Stats.BadRx++
		return
	}
	var ip wire.IPv4
	if rest, err = ip.DecodeFrom(rest); err != nil {
		h.Stats.BadRx++
		return
	}
	switch ip.Protocol {
	case wire.ProtocolUDP:
		var u wire.UDP
		payload, err := u.DecodeFrom(rest)
		if err != nil {
			h.Stats.BadRx++
			return
		}
		h.Stats.UDPRx++
		if handler, ok := h.udpHandlers[u.DstPort]; ok {
			handler(ip.Src, u.SrcPort, payload)
		}
	case wire.ProtocolTCPLite:
		var seg wire.TCPLite
		payload, err := seg.DecodeFrom(rest)
		if err != nil {
			h.Stats.BadRx++
			return
		}
		h.Stats.TCPRx++
		h.handleTCP(ip.Src, seg, payload)
	default:
		h.Stats.BadRx++
	}
}

// connKey identifies one tcplite connection from the host's viewpoint.
type connKey struct {
	localPort  uint16
	remoteNode uint32
	remotePort uint16
}

func (k connKey) String() string {
	return fmt.Sprintf(":%d<->%d:%d", k.localPort, k.remoteNode, k.remotePort)
}
