package core

import "time"

// Timer is a retransmit clock: *netsim.Timer on the simulated fabric,
// *time.Timer over real sockets. It is an alias of an interface literal so
// that a carrier in a package core imports (transport.Host) can return it
// without naming core.
type Timer = interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// TimerCarrier extends Carrier with a retransmit clock. transport.Host
// hands out timers on the simulator clock; udprt.Client real ones.
type TimerCarrier interface {
	Carrier
	NewTimer(fn func()) Timer
}

// window is the go-back-N retransmission window both reliable hops use: a
// worker's ReliableSender, which resends with SendUDPBurst, and a switch's
// hop replay, which resends with InjectClass. It retains each frame under
// consecutive sequence numbers from base until a cumulative ACK releases
// it, and one timer resends every frame in flight, oldest first, when an
// RTO passes without progress.
//
// The owner transmits first copies itself and starts the clock after
// them (push reports when), so a frame's events are queued before its
// timer's.
type window struct {
	frames [][]byte // frames[i] carries sequence base+i; owned by the window
	base   uint32
	sent   int // frames[:sent] are in flight
	limit  int // frames admit puts in flight; full at or beyond it
	rto    time.Duration
	timer  Timer // built by the owner around expire
	// resend retransmits the frames in flight on a timeout; false means
	// the owner gave up and the clock stays stopped.
	resend func(frames [][]byte) bool
}

// next is the sequence number the next pushed frame gets.
func (w *window) next() uint32 { return w.base + uint32(len(w.frames)) }

// full reports whether limit frames or more are retained. It binds only
// where the owner checks it.
func (w *window) full() bool { return len(w.frames) >= w.limit }

// push retains f under the next sequence number and reports whether the
// window was empty, so the owner starts the clock once f is on its way.
// A frame the owner has already transmitted is in flight at once;
// otherwise it waits for admit.
func (w *window) push(f []byte, inFlight bool) (wasEmpty bool) {
	wasEmpty = len(w.frames) == 0
	w.frames = append(w.frames, f)
	if inFlight {
		w.sent = len(w.frames)
	}
	return wasEmpty
}

// admit puts retained frames in flight up to limit and returns the ones
// it added, for the owner to transmit.
func (w *window) admit() [][]byte {
	first := w.sent
	w.sent = min(len(w.frames), w.limit)
	return w.frames[first:w.sent]
}

// ack releases every frame below the cumulative acknowledgement seq and
// returns how many. A stale ACK, or one naming a frame never sent,
// releases nothing.
func (w *window) ack(seq uint32) int {
	n := int(int32(seq - w.base))
	if n <= 0 || n > w.sent {
		return 0
	}
	clear(w.frames[:n]) // let the GC have them before append reallocates
	w.frames = w.frames[n:]
	w.base = seq
	w.sent -= n
	return n
}

// restart runs the clock one RTO from now over what is retained, or stops
// it when nothing is.
func (w *window) restart() {
	if len(w.frames) > 0 {
		w.timer.Reset(w.rto)
	} else {
		w.timer.Stop()
	}
}

// expire is the timer's callback: go back N.
func (w *window) expire() {
	if w.resend(w.frames[:w.sent]) {
		w.timer.Reset(w.rto)
	}
}
