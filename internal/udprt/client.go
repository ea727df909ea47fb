package udprt

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
)

// Client is an end host's handle on a DAIET agent over real UDP. It
// implements core.Carrier, so core.Sender runs over it unchanged; the
// reducer side pairs ReadPayload with core.Collector.Ingest.
type Client struct {
	conn   *net.UDPConn
	nodeID uint32
}

// Dial connects to an agent and registers the client's node ID.
func Dial(agentAddr string, nodeID uint32) (*Client, error) {
	raddr, err := net.ResolveUDPAddr("udp", agentAddr)
	if err != nil {
		return nil, fmt.Errorf("udprt: resolve %q: %w", agentAddr, err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("udprt: dial: %w", err)
	}
	c := &Client{conn: conn, nodeID: nodeID}
	if err := c.register(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) register() error {
	var b [regLen]byte
	copy(b[:4], regMagic[:])
	binary.BigEndian.PutUint32(b[4:], c.nodeID)
	_, err := c.conn.Write(b[:])
	return err
}

// ID implements core.Carrier.
func (c *Client) ID() netsim.NodeID { return netsim.NodeID(c.nodeID) }

// SendUDP implements core.Carrier: the DAIET payload travels as one real
// datagram to the agent, which routes on the embedded tree ID (dst and the
// port arguments are carried by the real IP/UDP headers end to end).
func (c *Client) SendUDP(_ netsim.NodeID, _, _ uint16, payload []byte) {
	_, _ = c.conn.Write(payload)
}

// ReadPayload blocks (until the deadline) for one inbound DAIET payload,
// copying it into buf and returning its length.
func (c *Client) ReadPayload(buf []byte, deadline time.Time) (int, error) {
	if !deadline.IsZero() {
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return 0, err
		}
	}
	n, err := c.conn.Read(buf)
	return n, err
}

// NewTimer returns a stopped real timer that runs fn when it expires,
// satisfying core.TimerCarrier. Note that over real sockets the caller is
// responsible for serializing sender methods against timer callbacks
// (ReliableSender is not concurrency-safe).
func (c *Client) NewTimer(fn func()) core.Timer {
	t := time.AfterFunc(time.Hour, fn) // the time package has no stopped AfterFunc
	t.Stop()
	return t
}

var _ core.TimerCarrier = (*Client)(nil)

// Close releases the socket.
func (c *Client) Close() error { return c.conn.Close() }

// LocalAddr returns the client's bound address.
func (c *Client) LocalAddr() net.Addr { return c.conn.LocalAddr() }
