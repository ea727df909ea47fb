package transport

import (
	"fmt"
	"time"

	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/wire"
)

// tcplite is a deliberately small reliable byte-stream protocol: MSS
// segmentation, a fixed sliding window, cumulative ACKs, go-back-N
// retransmission on a fixed RTO, and FIN teardown. It reproduces the
// packetization and reliability behaviour that Figure 3's TCP baseline
// depends on without modelling congestion control dynamics the experiment
// never stresses.

// Tunables. MSS defaults to the classic Ethernet-payload-derived 1460 so
// the TCP baseline packs ~73 20-byte pairs per segment; the Figure-3
// harness sweeps this.
const (
	DefaultMSS    = 1460
	DefaultWindow = 64 * 1024 // bytes in flight
	DefaultRTO    = 5 * time.Millisecond
)

// ConnState enumerates the tcplite connection lifecycle.
type ConnState int

// Connection states (subset of TCP's; enough for open-transfer-close).
const (
	StateSynSent ConnState = iota
	StateSynReceived
	StateEstablished
	StateFinWait   // we sent FIN, waiting for its ACK
	StateCloseWait // peer sent FIN; we may still send
	StateClosed
)

// ConnStats counts one connection's traffic.
type ConnStats struct {
	SegsTx     uint64 // all segments sent, including retransmissions
	SegsRx     uint64 // all segments received
	DataSegsTx uint64
	DataSegsRx uint64 // data-bearing segments received (incl. duplicates)
	BytesTx    uint64 // payload bytes first-transmitted
	BytesRx    uint64 // payload bytes delivered in order
	Retrans    uint64 // segments retransmitted
	DupSegs    uint64 // received duplicate/overlapping data segments
}

// Conn is one tcplite connection endpoint.
type Conn struct {
	host  *Host
	key   connKey
	state ConnState

	mss    int
	window int
	rto    time.Duration

	// Send side.
	sndBuf     []byte // bytes accepted from the app, not yet acked
	sndUna     uint32 // lowest unacknowledged sequence number
	sndNxt     uint32 // next sequence number to transmit
	iss        uint32 // initial send sequence
	finQueued  bool   // app called Close
	finSent    bool
	finSeq     uint32
	timerArmed bool
	timerGen   int // invalidates stale timers

	// Receive side.
	rcvNxt uint32
	ooo    map[uint32][]byte // out-of-order segments keyed by seq

	// Callbacks.
	OnData    func(p []byte)
	OnClose   func()
	onConnect func(*Conn)

	Stats ConnStats
}

// LocalPort returns the connection's local port.
func (c *Conn) LocalPort() uint16 { return c.key.localPort }

// RemoteNode returns the peer's fabric node ID.
func (c *Conn) RemoteNode() netsim.NodeID { return netsim.NodeID(c.key.remoteNode) }

// State returns the connection state.
func (c *Conn) State() ConnState { return c.state }

// ListenTCP registers an accept callback for connections to port.
func (h *Host) ListenTCP(port uint16, accept func(*Conn)) {
	h.listeners[port] = accept
}

// DialTCP opens a connection to (dst, dstPort). onConnect fires when the
// handshake completes. Returns the half-open connection immediately; Write
// before connect establishment is legal (bytes queue).
func (h *Host) DialTCP(dst netsim.NodeID, dstPort uint16, onConnect func(*Conn)) *Conn {
	key := connKey{localPort: h.ephemeralPort(), remoteNode: uint32(dst), remotePort: dstPort}
	c := &Conn{
		host:      h,
		key:       key,
		state:     StateSynSent,
		mss:       DefaultMSS,
		window:    DefaultWindow,
		rto:       DefaultRTO,
		ooo:       make(map[uint32][]byte),
		onConnect: onConnect,
		// Deterministic ISS derived from the endpoint pair keeps runs
		// reproducible.
		iss: uint32(uint64(h.id)<<16 ^ uint64(dst)<<8 ^ uint64(dstPort)),
	}
	c.sndUna, c.sndNxt = c.iss, c.iss
	h.conns[key] = c
	c.sendSeg(wire.TCPFlagSYN, c.sndNxt, 0, nil)
	c.sndNxt++ // SYN occupies one sequence number
	c.armTimer()
	return c
}

// SetMSS overrides the segment payload size (before or between writes).
func (c *Conn) SetMSS(mss int) {
	if mss > 0 {
		c.mss = mss
	}
}

// SetWindow overrides the bytes-in-flight window.
func (c *Conn) SetWindow(w int) {
	if w > 0 {
		c.window = w
	}
}

// SetRTO overrides the retransmission timeout.
func (c *Conn) SetRTO(d time.Duration) {
	if d > 0 {
		c.rto = d
	}
}

// Write queues p for reliable delivery. Writing after Close panics: it is
// a program bug in the workload driver.
func (c *Conn) Write(p []byte) {
	if c.finQueued || c.state == StateClosed {
		panic(fmt.Sprintf("tcplite: write on closing conn %s", c.key))
	}
	c.sndBuf = append(c.sndBuf, p...)
	c.pump()
}

// Close marks the end of the send stream; a FIN is sent after all queued
// bytes.
func (c *Conn) Close() {
	if c.finQueued {
		return
	}
	c.finQueued = true
	c.pump()
}

// inFlight returns unacknowledged bytes.
func (c *Conn) inFlight() int { return int(c.sndNxt - c.sndUna) }

// pump transmits as much queued data as the window allows, then the FIN.
func (c *Conn) pump() {
	if c.state != StateEstablished && c.state != StateCloseWait {
		return // handshake not done yet; SYN retransmit timer will drive us
	}
	for {
		sent := int(c.sndNxt - c.sndUna)
		if c.finSent {
			sent-- // FIN consumed one seq but no buffer byte
		}
		remaining := len(c.sndBuf) - sent
		if remaining <= 0 || c.inFlight() >= c.window || c.finSent {
			break
		}
		n := remaining
		if n > c.mss {
			n = c.mss
		}
		// Send whole segments only: partial-MSS sends would misalign the
		// stream's packetization, which the packet-count experiments
		// measure. Wait for ACKs instead.
		if c.inFlight()+n > c.window {
			break
		}
		seg := c.sndBuf[sent : sent+n]
		c.sendSeg(wire.TCPFlagACK, c.sndNxt, c.rcvNxt, seg)
		c.Stats.DataSegsTx++
		c.Stats.BytesTx += uint64(n)
		c.sndNxt += uint32(n)
		c.armTimer()
	}
	if c.finQueued && !c.finSent {
		sent := int(c.sndNxt - c.sndUna)
		if sent == len(c.sndBuf) { // everything transmitted at least once
			c.finSeq = c.sndNxt
			c.sendSeg(wire.TCPFlagFIN|wire.TCPFlagACK, c.sndNxt, c.rcvNxt, nil)
			c.sndNxt++
			c.finSent = true
			c.armTimer()
		}
	}
}

// sendSeg builds and transmits one segment.
func (c *Conn) sendSeg(flags uint16, seq, ack uint32, payload []byte) {
	buf := wire.NewBuffer(wire.DefaultHeadroom, len(payload))
	buf.AppendBytes(payload)
	seg := wire.TCPLite{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
		Window:  uint16(c.window / 1024),
	}
	frame := wire.BuildTCPLiteFrame(buf, seg, uint32(c.host.id), c.key.remoteNode)
	c.Stats.SegsTx++
	c.host.SendFrame(frame)
}

// armTimer schedules the retransmission timer if anything is outstanding.
func (c *Conn) armTimer() {
	if c.timerArmed {
		return
	}
	if c.sndUna == c.sndNxt && c.state != StateSynSent {
		return
	}
	c.timerArmed = true
	gen := c.timerGen
	c.host.After(c.rto, func() { c.onTimer(gen) })
}

// onTimer retransmits from sndUna (go-back-N) when the timer is still
// relevant.
func (c *Conn) onTimer(gen int) {
	if gen != c.timerGen || c.state == StateClosed {
		return // superseded: the newer chain owns timerArmed
	}
	c.timerArmed = false
	if c.sndUna == c.sndNxt {
		return // everything acked meanwhile
	}
	switch c.state {
	case StateSynSent:
		c.Stats.Retrans++
		c.sendSeg(wire.TCPFlagSYN, c.iss, 0, nil)
	default:
		// Retransmit one window from sndUna.
		c.retransmitFrom(c.sndUna)
	}
	c.armTimer()
}

// retransmitFrom resends buffered bytes in [from, sndNxt).
func (c *Conn) retransmitFrom(from uint32) {
	base := c.sndUna
	for seq := from; seq != c.sndNxt; {
		if c.finSent && seq == c.finSeq {
			c.Stats.Retrans++
			c.sendSeg(wire.TCPFlagFIN|wire.TCPFlagACK, seq, c.rcvNxt, nil)
			seq++
			continue
		}
		off := int(seq - base)
		n := len(c.sndBuf) - off
		if c.finSent {
			// Buffer indexing: sndBuf holds only data bytes.
			n = int(c.finSeq-base) - off
		}
		if n <= 0 {
			break
		}
		if n > c.mss {
			n = c.mss
		}
		c.Stats.Retrans++
		c.sendSeg(wire.TCPFlagACK, seq, c.rcvNxt, c.sndBuf[off:off+n])
		seq += uint32(n)
	}
}

// handleTCP demuxes one received tcplite segment to its connection or
// listener.
func (h *Host) handleTCP(src wire.IPv4Addr, seg wire.TCPLite, payload []byte) {
	key := connKey{localPort: seg.DstPort, remoteNode: src.NodeID(), remotePort: seg.SrcPort}
	if c, ok := h.conns[key]; ok {
		c.handleSeg(seg, payload)
		return
	}
	// New connection? Only SYNs to a listening port are accepted.
	if seg.Flags&wire.TCPFlagSYN != 0 && seg.Flags&wire.TCPFlagACK == 0 {
		accept, listening := h.listeners[seg.DstPort]
		if !listening {
			return // silently ignore; RSTs add nothing to the experiments
		}
		c := &Conn{
			host:   h,
			key:    key,
			state:  StateSynReceived,
			mss:    DefaultMSS,
			window: DefaultWindow,
			rto:    DefaultRTO,
			ooo:    make(map[uint32][]byte),
			iss:    uint32(uint64(h.id)<<16 ^ uint64(key.remoteNode)<<8 ^ 0x5a5a),
			rcvNxt: seg.Seq + 1,
		}
		c.sndUna, c.sndNxt = c.iss, c.iss
		h.conns[key] = c
		accept(c)
		c.sendSeg(wire.TCPFlagSYN|wire.TCPFlagACK, c.sndNxt, c.rcvNxt, nil)
		c.sndNxt++
		c.armTimer()
		return
	}
}

// handleSeg advances one connection's state machine.
func (c *Conn) handleSeg(seg wire.TCPLite, payload []byte) {
	c.Stats.SegsRx++

	// TIME_WAIT-style lingering: a closed connection still re-acks
	// retransmitted FINs so a lost final ACK cannot make the peer
	// retransmit forever.
	if c.state == StateClosed {
		if seg.Flags&wire.TCPFlagFIN != 0 {
			c.sendSeg(wire.TCPFlagACK, c.sndNxt, c.rcvNxt, nil)
		}
		return
	}

	// Duplicate SYN (our SYN-ACK got lost): re-ack it.
	if seg.Flags&wire.TCPFlagSYN != 0 && seg.Flags&wire.TCPFlagACK == 0 {
		if c.state == StateSynReceived || c.state == StateEstablished {
			c.sendSeg(wire.TCPFlagSYN|wire.TCPFlagACK, c.iss, c.rcvNxt, nil)
		}
		return
	}

	// SYN-ACK completes the client handshake.
	if seg.Flags&wire.TCPFlagSYN != 0 && seg.Flags&wire.TCPFlagACK != 0 {
		if c.state == StateSynSent {
			c.rcvNxt = seg.Seq + 1
			c.sndUna = seg.Ack
			c.state = StateEstablished
			c.timerGen++
			c.timerArmed = false
			c.sendSeg(wire.TCPFlagACK, c.sndNxt, c.rcvNxt, nil)
			if c.onConnect != nil {
				c.onConnect(c)
			}
			c.pump()
		} else {
			// Duplicate SYN-ACK: our ACK was lost; re-ack.
			c.sendSeg(wire.TCPFlagACK, c.sndNxt, c.rcvNxt, nil)
		}
		return
	}

	// Plain ACK processing.
	if seg.Flags&wire.TCPFlagACK != 0 {
		if c.state == StateSynReceived {
			c.state = StateEstablished
			c.timerGen++
			c.timerArmed = false
			c.pump()
		}
		if seqLEQ(c.sndUna, seg.Ack) && seqLEQ(seg.Ack, c.sndNxt) {
			advanced := seg.Ack != c.sndUna
			if advanced {
				// Trim acknowledged bytes off the send buffer. The FIN seq
				// consumes no buffer byte.
				ackedData := int(seg.Ack - c.sndUna)
				if c.finSent && seqLess(c.finSeq, seg.Ack) {
					ackedData--
				}
				if ackedData > len(c.sndBuf) {
					ackedData = len(c.sndBuf)
				}
				c.sndBuf = c.sndBuf[ackedData:]
				c.sndUna = seg.Ack
				c.timerGen++
				c.timerArmed = false
				if c.sndUna != c.sndNxt {
					c.armTimer()
				}
				if c.finSent && c.sndUna == c.sndNxt {
					// Our FIN is acknowledged.
					if c.state == StateCloseWait || c.state == StateFinWait {
						c.teardown()
					} else {
						c.state = StateFinWait
					}
				}
				c.pump()
			}
		}
	}

	// Data delivery.
	if len(payload) > 0 {
		c.Stats.DataSegsRx++
		c.acceptData(seg.Seq, payload)
		c.sendSeg(wire.TCPFlagACK, c.sndNxt, c.rcvNxt, nil)
	}

	// FIN from the peer.
	if seg.Flags&wire.TCPFlagFIN != 0 {
		if seg.Seq == c.rcvNxt {
			c.rcvNxt++
			c.sendSeg(wire.TCPFlagACK, c.sndNxt, c.rcvNxt, nil)
			switch c.state {
			case StateFinWait:
				c.teardown()
			case StateEstablished:
				c.state = StateCloseWait
				if c.finSent && c.sndUna == c.sndNxt {
					c.teardown()
				} else if c.OnClose != nil && !c.finQueued {
					// Peer half-closed; notify the app (EOF).
					c.notifyClose()
				}
			}
		} else if seqLess(seg.Seq, c.rcvNxt) {
			// Duplicate FIN: re-ack.
			c.sendSeg(wire.TCPFlagACK, c.sndNxt, c.rcvNxt, nil)
		} else {
			// FIN beyond rcvNxt: data before it was lost; ignore, the
			// sender will retransmit everything from its sndUna.
			c.Stats.DupSegs++
		}
	}
}

// acceptData ingests a data segment, delivering in-order bytes and parking
// out-of-order ones.
func (c *Conn) acceptData(seq uint32, payload []byte) {
	if seqLess(seq, c.rcvNxt) {
		// Fully or partially duplicate. Deliver only the new suffix if any.
		dup := int(c.rcvNxt - seq)
		if dup >= len(payload) {
			c.Stats.DupSegs++
			return
		}
		payload = payload[dup:]
		seq = c.rcvNxt
	}
	if seq != c.rcvNxt {
		// Out of order: park a copy (the frame buffer is transient).
		if _, exists := c.ooo[seq]; !exists {
			c.ooo[seq] = append([]byte(nil), payload...)
		} else {
			c.Stats.DupSegs++
		}
		return
	}
	c.deliver(payload)
	// Drain contiguous out-of-order segments.
	for {
		p, ok := c.ooo[c.rcvNxt]
		if !ok {
			break
		}
		delete(c.ooo, c.rcvNxt)
		c.deliver(p)
	}
}

func (c *Conn) deliver(p []byte) {
	c.rcvNxt += uint32(len(p))
	c.Stats.BytesRx += uint64(len(p))
	if c.OnData != nil {
		c.OnData(p)
	}
}

// teardown finishes the connection. The entry lingers in the host's demux
// table for a few RTOs (TIME_WAIT) before being reaped.
func (c *Conn) teardown() {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	c.timerGen++
	key := c.key
	h := c.host
	h.After(8*c.rto, func() {
		if cur, ok := h.conns[key]; ok && cur == c {
			delete(h.conns, key)
		}
	})
	c.notifyClose()
}

func (c *Conn) notifyClose() {
	if c.OnClose != nil {
		f := c.OnClose
		c.OnClose = nil
		f()
	}
}

// seqLess reports a < b in 32-bit sequence space.
func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ reports a <= b in 32-bit sequence space.
func seqLEQ(a, b uint32) bool { return a == b || seqLess(a, b) }
