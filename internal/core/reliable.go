package core

import (
	"fmt"
	"time"

	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/transport"
	"github.com/daiet/daiet/internal/wire"
)

// Reliability extension. The paper leaves packet losses to future work
// ("In the current prototype, we do not address the issue of packet
// losses"); this file implements the natural first step the wire format
// already reserves space for: reliable delivery on the worker→switch edge
// hop, with
//
//   - sender-side go-back-N over the DAIET sequence number (window, RTO,
//     bounded retries), and
//   - switch-side in-order filtering per (tree, sender) with cumulative
//     ACK generation — which keeps aggregation idempotent under
//     retransmission even for non-idempotent combiners like sum.
//
// Switches protect the hops they emit on the same way, with a bounded
// replay buffer per tree (TreeConfig.RootReplay). One go-back-N window
// type (window.go) serves the worker's sender and every switch's replay.

// ReliableConfig tunes a ReliableSender. The zero value gets defaults.
type ReliableConfig struct {
	Window     int           // max unacknowledged packets (default 32)
	RTO        time.Duration // retransmission timeout (default 2ms)
	MaxRetries int           // give-up bound per stall (default 50)
	// Epoch distinguishes rounds on the same tree. The switch treats a
	// seq-0 packet with a newer epoch as the start of a fresh stream and
	// can still acknowledge stragglers of the previous epoch — resolving
	// the lost-final-ACK ambiguity (the protocol's TIME_WAIT analogue).
	// Applications increment it per round (mod 256).
	Epoch uint8
}

func (c ReliableConfig) withDefaults() ReliableConfig {
	if c.Window == 0 {
		c.Window = 32
	}
	if c.RTO == 0 {
		c.RTO = 2 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 50
	}
	return c
}

// ReliableStats counts a reliable sender's activity.
type ReliableStats struct {
	PairsSent       uint64
	DataPackets     uint64
	EndPackets      uint64
	Transmissions   uint64 // first transmissions + retransmissions
	Retransmissions uint64
	AcksReceived    uint64
}

// ReliableSender is the loss-tolerant counterpart of Sender: it assigns
// consecutive sequence numbers to DATA packets and the final END, retains
// payloads until cumulatively acknowledged by the switch, and retransmits
// from the lowest unacknowledged sequence on timeout.
//
// It is not safe for concurrent use; over real sockets, serialize calls
// and timer callbacks externally.
type ReliableSender struct {
	carrier  TimerCarrier
	bc       BurstCarrier // non-nil when carrier supports bursts
	cfg      ReliableConfig
	geom     wire.PairGeometry
	maxPairs int
	treeID   uint32
	dst      netsim.NodeID

	buf wire.Buffer // the packet being filled; its backing array goes to win
	n   int         // pairs in buf

	win     window // limit cfg.Window; payloads are sealed buffers, not copies
	ended   bool
	failed  error
	retries int

	// OnComplete fires once when the END is acknowledged.
	OnComplete func()
	// OnError fires once if MaxRetries is exhausted.
	OnError func(error)

	Stats ReliableStats
}

// NewReliableSender creates a reliable sender for one (worker, tree)
// stream.
func NewReliableSender(carrier TimerCarrier, treeID uint32, dst netsim.NodeID,
	geom wire.PairGeometry, maxPairs int, cfg ReliableConfig) (*ReliableSender, error) {

	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if maxPairs <= 0 {
		maxPairs = geom.MaxPairsPerPacket()
		if maxPairs > wire.DefaultMaxPairs {
			maxPairs = wire.DefaultMaxPairs
		}
	}
	bc, _ := carrier.(BurstCarrier)
	s := &ReliableSender{
		carrier:  carrier,
		bc:       bc,
		cfg:      cfg.withDefaults(),
		geom:     geom,
		maxPairs: maxPairs,
		treeID:   treeID,
		dst:      dst,
	}
	s.win = window{limit: s.cfg.Window, rto: s.cfg.RTO, resend: s.retransmit}
	s.win.timer = carrier.NewTimer(s.win.expire)
	return s, nil
}

// Send appends one pair, packetizing as the buffer fills.
func (s *ReliableSender) Send(key []byte, value uint32) error {
	if s.ended {
		return fmt.Errorf("core: reliable Send after End on tree %d", s.treeID)
	}
	if s.failed != nil {
		return s.failed
	}
	if s.n == 0 {
		// A fresh backing array per packet: once sealed, the window owns it.
		s.buf = *wire.NewBuffer(wire.DaietHeaderLen, s.maxPairs*s.geom.PairWidth())
	}
	if err := wire.AppendPair(&s.buf, s.geom, key, value); err != nil {
		return err
	}
	s.n++
	s.Stats.PairsSent++
	if s.n >= s.maxPairs {
		s.seal(wire.TypeData)
		s.Stats.DataPackets++
	}
	return nil
}

// End seals pending pairs and queues the END packet. Completion is
// signalled via OnComplete when the END is acknowledged.
func (s *ReliableSender) End() {
	if s.ended {
		return
	}
	if s.n > 0 {
		s.seal(wire.TypeData)
		s.Stats.DataPackets++
	}
	s.ended = true
	s.buf = *wire.NewBuffer(wire.DaietHeaderLen, 0)
	s.seal(wire.TypeEnd)
	s.Stats.EndPackets++
}

// Done reports whether every packet, including the END, is acknowledged.
func (s *ReliableSender) Done() bool {
	return s.ended && len(s.win.frames) == 0 && s.failed == nil
}

// Err returns the terminal error after a give-up, if any.
func (s *ReliableSender) Err() error { return s.failed }

// seal prepends the sequenced header to the buffer's pairs, hands the
// payload to the window and pumps.
func (s *ReliableSender) seal(typ wire.DaietType) {
	hdr := wire.DaietHeader{
		Type:     typ,
		TreeID:   s.treeID,
		Seq:      s.win.next(),
		NumPairs: uint16(s.n),
		Flags:    uint16(s.cfg.Epoch) << 8,
	}
	hdr.SerializeTo(&s.buf)
	first := s.win.push(s.buf.Bytes(), false)
	s.buf, s.n = wire.Buffer{}, 0
	s.pump(first)
}

// pump transmits queued payloads within the window, then restarts the
// clock when asked.
func (s *ReliableSender) pump(restart bool) {
	if s.failed != nil {
		return
	}
	if p := s.win.admit(); len(p) > 0 {
		s.transmit(p)
	}
	if restart {
		s.win.restart()
	}
}

// transmit hands payloads to the carrier, as one burst when supported —
// window fills and go-back-N retransmissions are the bursty paths.
func (s *ReliableSender) transmit(payloads [][]byte) {
	if s.bc != nil && len(payloads) > 1 {
		s.bc.SendUDPBurst(s.dst, wire.UDPPortDaiet, wire.UDPPortDaiet, payloads)
	} else {
		for _, p := range payloads {
			s.carrier.SendUDP(s.dst, wire.UDPPortDaiet, wire.UDPPortDaiet, p)
		}
	}
	s.Stats.Transmissions += uint64(len(payloads))
}

// retransmit is the window's resend: go back N as one burst, or give up
// once MaxRetries timeouts in a row made no progress.
func (s *ReliableSender) retransmit(payloads [][]byte) bool {
	s.retries++
	if s.retries > s.cfg.MaxRetries {
		s.failed = fmt.Errorf("core: tree %d: gave up after %d retries at seq %d",
			s.treeID, s.cfg.MaxRetries, s.win.base)
		if s.OnError != nil {
			s.OnError(s.failed)
		}
		return false
	}
	s.transmit(payloads)
	s.Stats.Retransmissions += uint64(len(payloads))
	return true
}

// HandleAck processes a cumulative acknowledgement: every sequence below
// ackSeq is released.
func (s *ReliableSender) HandleAck(ackSeq uint32) {
	s.Stats.AcksReceived++
	if s.failed != nil || s.win.ack(ackSeq) == 0 {
		return // given up, or a stale or absurd ACK
	}
	s.retries = 0
	s.pump(true)
	if s.Done() && s.OnComplete != nil {
		f := s.OnComplete
		s.OnComplete = nil
		f()
	}
}

// AckMux demultiplexes inbound DAIET traffic on a worker host: ACK packets
// route to the ReliableSender for their tree; everything else is ignored
// (workers do not collect). Reducer hosts keep using Collector.Attach.
type AckMux struct {
	senders map[uint32]*ReliableSender
}

// NewAckMux installs the mux on the host's DAIET port and returns it.
func NewAckMux(h *transport.Host) *AckMux {
	m := &AckMux{senders: make(map[uint32]*ReliableSender)}
	h.HandleUDP(wire.UDPPortDaiet, func(_ wire.IPv4Addr, _ uint16, payload []byte) {
		m.Ingest(payload)
	})
	return m
}

// Register attaches a sender to its tree ID.
func (m *AckMux) Register(s *ReliableSender) { m.senders[s.treeID] = s }

// Ingest routes one DAIET payload (exposed for real-socket carriers).
// ACKs from a different epoch are dropped: they acknowledge another round.
func (m *AckMux) Ingest(payload []byte) {
	var hdr wire.DaietHeader
	if _, err := hdr.DecodeFrom(payload); err != nil {
		return
	}
	if hdr.Type != wire.TypeAck {
		return
	}
	s, ok := m.senders[hdr.TreeID]
	if !ok {
		return
	}
	if uint8(hdr.Flags>>8) != s.cfg.Epoch {
		return
	}
	s.HandleAck(hdr.Seq)
}
