package dataplane

import (
	"errors"
	"time"

	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/trace"
)

// Counters aggregates a switch's observable behaviour. The control plane
// reads them; tests assert on them.
type Counters struct {
	RxFrames     uint64
	TxFrames     uint64
	Emitted      uint64 // generated packets (flushes)
	Recirculated uint64 // recirculation passes taken
	Stalls       uint64 // stall retries taken (replay-buffer backpressure)

	DropsProgram uint64 // program decided to drop (or made no decision)
	DropsParse   uint64 // parser rejected the packet
	DropsBudget  uint64 // per-packet op budget exceeded
	DropsRecirc  uint64 // recirculation limit exceeded
	DropsError   uint64 // other program errors (table reapply, bounds)
	DropsDown    uint64 // frames arriving (or in flight) while crashed
}

// Drops returns the sum of all drop reasons.
func (c Counters) Drops() uint64 {
	return c.DropsProgram + c.DropsParse + c.DropsBudget + c.DropsRecirc + c.DropsError + c.DropsDown
}

// maxFreeCtxs bounds the per-switch Ctx free list. Recirculation-heavy
// workloads can have many contexts in flight at once; without a cap every
// retired context is retained forever, a slow leak on long-running fabrics.
// The cap covers the realistic in-flight burst while letting excess
// contexts (and the frame buffers they reference) return to the GC.
const maxFreeCtxs = 64

// Switch is a netsim.Node running a Pipeline over a RegisterFile: the
// simulated programmable ASIC.
type Switch struct {
	nw   *netsim.Network
	id   netsim.NodeID
	pipe *Pipeline
	regs *RegisterFile

	// RecircLatency is the extra delay per recirculation pass; the paper
	// notes recirculation "comes at the cost of additional processing
	// latency and lowers the forwarding capacity".
	RecircLatency netsim.Time

	// StallLatency is the retry delay for VerdictStall passes — packets
	// parked on external state such as replay-buffer backpressure. Longer
	// than RecircLatency because the switch is waiting on a round trip,
	// not on its own pipeline.
	StallLatency netsim.Time

	// down marks the switch crashed: every arriving or in-flight frame is
	// dropped until SetDown(false). Fault injection toggles it while the
	// network is quiescent.
	down bool

	// Trace, when set, records per-packet pipeline events (rx, tx, drops
	// with reasons, recirculation, generated packets) into a bounded ring
	// for post-mortem inspection. Nil disables tracing at zero cost.
	Trace *trace.Ring

	Counters Counters

	free []*Ctx
}

// NewSwitch wraps pipe and regs into a fabric node.
func NewSwitch(pipe *Pipeline, regs *RegisterFile) *Switch {
	return &Switch{
		pipe:          pipe,
		regs:          regs,
		RecircLatency: netsim.Duration(500 * time.Nanosecond),
		StallLatency:  netsim.Duration(2 * time.Microsecond),
	}
}

// SetDown crashes (true) or revives (false) the switch. While down, every
// frame — arriving, recirculating, or stalled — is dropped and counted
// under DropsDown. Revival restores forwarding only; tables and registers
// are whatever the owning Program left them as.
func (s *Switch) SetDown(down bool) { s.down = down }

// ResetBuffers zeroes the switch's shared packet-memory occupancy (its
// netsim buffer pool, when one is attached), so a rebooted switch admits
// traffic against an empty memory instead of the dead boot's accounting
// (netsim schedules deliveries at admission, so already-admitted frames
// still arrive — see Network.ResetPool). Poolless switches clear their
// private per-port queue accounting the same way. Part of crash
// semantics — core.Program.Crash calls it alongside wiping tables and
// registers. Call only while the network is quiescent.
func (s *Switch) ResetBuffers() { s.nw.ResetPool(s.id) }

// Down reports whether the switch is crashed.
func (s *Switch) Down() bool { return s.down }

// After schedules fn d ticks from the current virtual time — the delay
// of a recirculation or stall pass. Valid after Attach.
func (s *Switch) After(d netsim.Time, fn func()) { s.nw.Eng.After(d, fn) }

// NewTimer returns a stopped timer on the fabric clock that runs fn when
// it expires — the replay buffer's retransmit clock. Valid after Attach.
func (s *Switch) NewTimer(fn func()) *netsim.Timer { return s.nw.Eng.NewTimer(fn) }

// Now returns the current virtual time.
func (s *Switch) Now() netsim.Time { return s.nw.Now() }

// Inject transmits a program-generated frame out of port from control
// logic running outside a pipeline pass (timer-driven retransmission),
// under traffic class 0. It is accounted like an emitted packet. Injection
// on a crashed switch or an invalid port is counted and dropped.
func (s *Switch) Inject(port int, frame []byte) { s.InjectClass(port, 0, frame) }

// InjectClass is Inject with an explicit shared-buffer traffic class, so
// replay retransmissions leave under the same class as the original
// emission.
func (s *Switch) InjectClass(port, class int, frame []byte) {
	if s.down {
		s.Counters.DropsDown++
		return
	}
	if port < 0 || port >= s.nw.NumPorts(s.id) {
		s.Counters.DropsProgram++
		return
	}
	s.Counters.Emitted++
	s.Counters.TxFrames++
	s.trace(trace.KindEmit, int64(port), int64(len(frame)), "")
	s.nw.SendClass(s.id, port, class, frame)
}

// Attach implements netsim.Node.
func (s *Switch) Attach(nw *netsim.Network, id netsim.NodeID) { s.nw, s.id = nw, id }

// ID returns the fabric node ID (valid after Attach).
func (s *Switch) ID() netsim.NodeID { return s.id }

// Registers exposes the switch's register file to the control plane.
func (s *Switch) Registers() *RegisterFile { return s.regs }

// Pipeline returns the running pipeline.
func (s *Switch) Pipeline() *Pipeline { return s.pipe }

func (s *Switch) getCtx() *Ctx {
	if n := len(s.free); n > 0 {
		c := s.free[n-1]
		s.free = s.free[:n-1]
		return c
	}
	return &Ctx{}
}

func (s *Switch) putCtx(c *Ctx) {
	if len(s.free) >= maxFreeCtxs {
		return
	}
	c.frame = nil
	s.free = append(s.free, c)
}

// HandleFrame implements netsim.Node: one ingress packet enters the
// pipeline.
func (s *Switch) HandleFrame(inPort int, frame []byte) {
	s.Counters.RxFrames++
	s.trace(trace.KindRx, int64(inPort), int64(len(frame)), "")
	if s.down {
		s.Counters.DropsDown++
		s.trace(trace.KindDrop, int64(inPort), 0, "switch down")
		return
	}
	cfg := s.pipe.cfg
	ctx := s.getCtx()
	ctx.reset(frame, inPort, cfg.OpBudget, cfg.ParseBudget)
	s.process(ctx)
}

// process runs one pipeline pass and acts on the verdict, scheduling
// further recirculation passes on the event loop.
func (s *Switch) process(ctx *Ctx) {
	if s.down {
		// A crash kills recirculating and stalled packets too.
		s.Counters.DropsDown++
		s.trace(trace.KindDrop, int64(ctx.InPort), 0, "switch down")
		s.putCtx(ctx)
		return
	}
	res := s.pipe.runPass(ctx)

	// Generated packets leave regardless of the original packet's fate
	// (they were emitted before any failure point — Emit is metered, so an
	// emit after an error is a no-op).
	for _, e := range ctx.emits {
		s.Counters.Emitted++
		s.Counters.TxFrames++
		s.trace(trace.KindEmit, int64(e.port), int64(len(e.frame)), "")
		s.nw.SendClass(s.id, e.port, e.class, e.frame)
	}
	ctx.emits = ctx.emits[:0]

	if res.err != nil {
		switch {
		case errors.Is(res.err, ErrParseBudget):
			s.Counters.DropsParse++
		case errors.Is(res.err, ErrOpBudget):
			s.Counters.DropsBudget++
		default:
			s.Counters.DropsError++
		}
		s.trace(trace.KindDrop, int64(ctx.InPort), 0, res.err.Error())
		s.putCtx(ctx)
		return
	}

	switch res.verdict {
	case VerdictForward:
		if res.outPort < 0 || res.outPort >= s.nw.NumPorts(s.id) {
			s.Counters.DropsProgram++
			s.trace(trace.KindDrop, int64(res.outPort), 0, "invalid egress port")
			s.putCtx(ctx)
			return
		}
		s.Counters.TxFrames++
		s.trace(trace.KindTx, int64(res.outPort), int64(len(ctx.frame)), "")
		s.nw.SendClass(s.id, res.outPort, res.outClass, ctx.frame)
		s.putCtx(ctx)
	case VerdictRecirculate:
		if ctx.RecircCount >= s.pipe.cfg.MaxRecirc {
			s.Counters.DropsRecirc++
			s.trace(trace.KindDrop, int64(ctx.InPort), 0, "recirculation limit")
			s.putCtx(ctx)
			return
		}
		ctx.RecircCount++
		s.Counters.Recirculated++
		s.trace(trace.KindRecirculate, int64(ctx.RecircCount), 0, "")
		ctx.resetForPass()
		s.After(s.RecircLatency, func() { s.process(ctx) })
	case VerdictStall:
		// Waiting on external state: retry the pass later without charging
		// the recirculation limit (progress resumes when the state changes,
		// not when the pipeline loops).
		s.Counters.Stalls++
		ctx.resetForPass()
		s.After(s.StallLatency, func() { s.process(ctx) })
	default:
		s.Counters.DropsProgram++
		s.trace(trace.KindDrop, int64(ctx.InPort), 0, "program drop")
		s.putCtx(ctx)
	}
}

// trace records one event when tracing is enabled.
func (s *Switch) trace(kind trace.Kind, a, b int64, note string) {
	if s.Trace == nil {
		return
	}
	s.Trace.Record(trace.Event{Node: uint32(s.id), Kind: kind, A: a, B: b, Note: note})
}
