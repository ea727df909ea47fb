package netsim

import "fmt"

// Shared-memory switch buffers. Real switch ASICs do not give every port a
// private FIFO: all egress queues carve space out of one on-chip packet
// memory, arbitrated by a Dynamic Threshold (DT) policy in the style of
// Choudhury–Hahne. A node with a BufferPool attached charges every byte its
// half-links accept against the shared memory. Admission is per traffic
// class: each (port, class) queue owns a hard-carved reserve floor and may
// borrow beyond it up to
//
//	limit = reserve + alpha × free
//
// bytes, where free is the UNCOMMITTED memory: TotalBytes minus the sum of
// max(occupancy, reserve) over every (port, class) queue. Carving reserves
// out of the borrowable memory — instead of merely exempting a port below
// its floor from the threshold — makes the floor a physical guarantee: no
// alpha, however aggressive, lets one queue borrow bytes another queue's
// floor has set aside, so a queue inside its reserve is NEVER pool-rejected
// (it can only exhaust its own floor). alpha still trades isolation (small
// alpha: queues cannot starve each other beyond their floors) against
// utilization (large alpha: one hot queue may borrow nearly all uncommitted
// memory).
//
// alpha = 0 with reserve = total/ports degenerates into equal static
// partitioning — reserves then commit the whole memory, free is 0, and the
// pool reproduces the per-port model it replaces byte-for-byte, which the
// bigincast experiment uses as its comparison baseline.
//
// Nodes without a pool keep the standalone-link fallback: each half-link's
// private LinkConfig.QueueBytes FIFO, exactly as before pools existed, so
// historical figures stay reproducible.

// ClassConfig sizes one traffic class of a shared buffer pool. Every port
// of the pooled node gets its own hard reserve per class; classes are how
// tenants (or ACK vs DATA traffic) are isolated from each other on one
// fabric (see Network.SendClass and core.TreeConfig.DataClass/AckClass).
type ClassConfig struct {
	// ReserveBytes is the per-port hard floor for this class: the memory is
	// physically carved out of the borrowable pool, so a (port, class)
	// queue below it is never rejected. Default 0 (pure DT).
	ReserveBytes int
	// Alpha is the Dynamic Threshold factor: beyond its reserve, a queue
	// may hold up to Alpha × (uncommitted pool bytes) more. 0 disables
	// borrowing (static partitioning into reserves).
	Alpha float64
}

// PoolConfig sizes one node's shared buffer pool.
type PoolConfig struct {
	// TotalBytes is the shared packet memory (required, > 0).
	TotalBytes int

	// ReserveBytes/Alpha are the single-class shorthand: leaving Classes
	// empty is equivalent to Classes = []ClassConfig{{ReserveBytes, Alpha}}.
	// They must be zero when Classes is set.
	ReserveBytes int
	Alpha        float64

	// Classes declares the pool's traffic classes, indexed by the class a
	// frame is sent under (Network.SendClass). Frames sent with a class
	// outside [0, len) fold into class 0 — the best-effort default — so one
	// aggregation tree can span pools with different class counts.
	Classes []ClassConfig
}

// classes returns the normalized per-class configuration (never empty).
func (c PoolConfig) classes() []ClassConfig {
	if len(c.Classes) > 0 {
		return c.Classes
	}
	return []ClassConfig{{ReserveBytes: c.ReserveBytes, Alpha: c.Alpha}}
}

// sumReserve is one port's total hard carve: the per-class floors summed.
func (c PoolConfig) sumReserve() int {
	sum := 0
	for _, cl := range c.classes() {
		sum += cl.ReserveBytes
	}
	return sum
}

func (c PoolConfig) validate() error {
	if c.TotalBytes <= 0 {
		return fmt.Errorf("netsim: pool TotalBytes %d, want > 0", c.TotalBytes)
	}
	if len(c.Classes) > 0 && (c.ReserveBytes != 0 || c.Alpha != 0) {
		return fmt.Errorf("netsim: pool declares both Classes and legacy ReserveBytes/Alpha")
	}
	for i, cl := range c.classes() {
		if cl.ReserveBytes < 0 || cl.ReserveBytes > c.TotalBytes {
			return fmt.Errorf("netsim: pool class %d ReserveBytes %d outside [0, %d]",
				i, cl.ReserveBytes, c.TotalBytes)
		}
		if cl.Alpha < 0 {
			return fmt.Errorf("netsim: pool class %d Alpha %g, want >= 0", i, cl.Alpha)
		}
	}
	if sum := c.sumReserve(); sum > c.TotalBytes {
		return fmt.Errorf("netsim: pool class reserves sum to %d bytes, memory is %d",
			sum, c.TotalBytes)
	}
	return nil
}

// dtLimit is the Dynamic-Threshold borrowing allowance over the currently
// uncommitted memory: int(alpha × free), truncated toward zero. The
// truncation mode is load-bearing for the byte-identity contract — every
// recorded admission decision depends on it — so the rounding lives here,
// in exactly one place, pinned by TestDTLimitGolden. Do not change it
// silently.
func dtLimit(alpha float64, free int) int {
	return int(alpha * float64(free))
}

// ClassStats is the observable per-class state of one node's buffer pool.
type ClassStats struct {
	ReserveBytes int
	Alpha        float64
	Used         int    // bytes this class currently occupies, all ports
	HighWater    int    // max Used ever reached
	Drops        uint64 // admissions rejected for this class
}

// PoolStats is the observable state of one node's buffer pool.
type PoolStats struct {
	TotalBytes int
	// Used is the memory currently occupied (drained to the node's clock).
	Used int
	// Committed is the hard-carve commitment: Used plus every (port, class)
	// floor's unused remainder. TotalBytes − Committed is the borrowable
	// memory DT thresholds are computed over.
	Committed int
	// HighWater is the maximum occupancy ever reached — the headline
	// shared-buffer pressure statistic of the bigincast figure.
	HighWater int
	// Drops counts admissions the pool rejected, summed over all ports and
	// classes (per-port attribution is in each port's LinkStats.DropsPool,
	// per-class attribution in Classes).
	Drops uint64
	// Classes reports per-class occupancy and drops, indexed by class.
	Classes []ClassStats
}

// poolRec is one admitted frame awaiting serialization in the shared
// memory: completion time, size, and the (port slot, class) queue it
// occupies — needed to restore that queue's reserve commitment on drain.
type poolRec struct {
	done  Time
	size  int
	slot  int32
	class int32
}

// poolHeap is a monomorphic min-heap of poolRecs ordered by completion
// time. One node's ports serialize independently, so completions interleave
// across ports; the heap releases memory in completion order regardless of
// admission order.
type poolHeap []poolRec

func (h *poolHeap) push(r poolRec) {
	*h = append(*h, r)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].done <= q[i].done {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *poolHeap) pop() poolRec {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && q[right].done < q[left].done {
			min = right
		}
		if q[min].done >= q[i].done {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// classAcct is one class's live accounting.
type classAcct struct {
	used      int
	highWater int
	drops     uint64
}

// BufferPool is one node's shared packet memory.
type BufferPool struct {
	cfg     PoolConfig
	classes []ClassConfig // normalized cfg.classes()
	carve   int           // cfg.sumReserve(): one port's full hard carve

	nSlots    int   // registered port slots
	occ       []int // occupancy per (slot, class): occ[slot*len(classes)+class]
	used      int   // Σ occ
	committed int   // Σ max(occ, reserve) — never exceeds TotalBytes
	highWater int
	drops     uint64
	cls       []classAcct
	pending   poolHeap
}

func newBufferPool(cfg PoolConfig) *BufferPool {
	classes := cfg.classes()
	return &BufferPool{
		cfg:     cfg,
		classes: classes,
		carve:   cfg.sumReserve(),
		cls:     make([]classAcct, len(classes)),
	}
}

// carvePorts registers n more port slots, carving each port's reserves out
// of the borrowable memory. Over-committing the physical memory with floors
// is the configuration error the hard-carve model exists to make loud: it
// is rejected here instead of silently degenerating at admission time.
func (bp *BufferPool) carvePorts(n int) error {
	if need := (bp.nSlots + n) * bp.carve; need > bp.cfg.TotalBytes {
		return fmt.Errorf("netsim: pool reserves over-committed: %d ports × %d reserve bytes = %d > %d total",
			bp.nSlots+n, bp.carve, need, bp.cfg.TotalBytes)
	}
	bp.nSlots += n
	bp.committed += n * bp.carve
	bp.occ = append(bp.occ, make([]int, n*len(bp.classes))...)
	return nil
}

// foldClass maps a frame's traffic class into the pool's configured class
// space: out-of-range classes are best-effort (class 0).
func (bp *BufferPool) foldClass(class int) int {
	if class < 0 || class >= len(bp.classes) {
		return 0
	}
	return class
}

// drainTo releases every admitted frame fully serialized at or before now,
// restoring each one's (port, class) reserve commitment as occupancy falls
// back under the floor.
func (bp *BufferPool) drainTo(now Time) {
	for len(bp.pending) > 0 && bp.pending[0].done <= now {
		r := bp.pending.pop()
		idx := int(r.slot)*len(bp.classes) + int(r.class)
		reserve := bp.classes[r.class].ReserveBytes
		q := bp.occ[idx]
		if q > reserve {
			floor := q - r.size
			if floor < reserve {
				floor = reserve
			}
			bp.committed -= q - floor
		}
		bp.occ[idx] = q - r.size
		bp.used -= r.size
		bp.cls[r.class].used -= r.size
	}
}

// admit decides whether the (slot, class) queue may add a size-byte frame.
// The caller must have drained the pool to now first, and folded the class.
//
// The hard-carve invariant — committed = Σ max(occ, reserve) ≤ TotalBytes,
// maintained by carvePorts/charge/drainTo — means a queue inside its floor
// always has physical room: its memory was set aside when the port joined.
// Beyond the floor, the borrowed growth must fit in the uncommitted memory
// AND stay under the class's dynamic threshold.
func (bp *BufferPool) admit(slot, class, size int) bool {
	cl := &bp.classes[class]
	q := bp.occ[slot*len(bp.classes)+class]
	after := q + size
	if after <= cl.ReserveBytes {
		return true // inside the hard floor: only the floor itself bounds us
	}
	free := bp.cfg.TotalBytes - bp.committed
	base := q
	if base < cl.ReserveBytes {
		base = cl.ReserveBytes // the floor absorbs the first reserve bytes
	}
	if after-base > free {
		return false // borrowable memory exhausted
	}
	return after <= cl.ReserveBytes+dtLimit(cl.Alpha, free)
}

// charge records an admitted frame occupying the (slot, class) queue until
// done, growing the commitment by the bytes borrowed beyond the floor.
func (bp *BufferPool) charge(slot, class int, done Time, size int) {
	idx := slot*len(bp.classes) + class
	cl := &bp.classes[class]
	q := bp.occ[idx]
	if after := q + size; after > cl.ReserveBytes {
		base := q
		if base < cl.ReserveBytes {
			base = cl.ReserveBytes
		}
		bp.committed += after - base
	}
	bp.occ[idx] = q + size
	bp.used += size
	if bp.used > bp.highWater {
		bp.highWater = bp.used
	}
	ca := &bp.cls[class]
	ca.used += size
	if ca.used > ca.highWater {
		ca.highWater = ca.used
	}
	bp.pending.push(poolRec{done: done, size: size, slot: int32(slot), class: int32(class)})
}

// rejected counts one refused admission against the pool and the class.
func (bp *BufferPool) rejected(class int) {
	bp.drops++
	bp.cls[class].drops++
}

// reset empties the memory (a crash/reboot losing all buffered frames):
// every class's occupancy returns to zero and the commitment to the bare
// floors, symmetrically across classes. Cumulative statistics survive:
// high-water marks and drop counts describe the run, not the current boot.
func (bp *BufferPool) reset() {
	bp.used = 0
	bp.committed = bp.nSlots * bp.carve
	for i := range bp.occ {
		bp.occ[i] = 0
	}
	for i := range bp.cls {
		bp.cls[i].used = 0
	}
	bp.pending = bp.pending[:0]
}

// SetNodePool attaches a shared buffer pool to node id: every half-link
// transmitting from id switches from its private LinkConfig.QueueBytes FIFO
// to DT admission against this pool. It may be called before or after the
// node's links are connected (later Connects join the pool automatically),
// but must precede any traffic. Reserves are validated
// against the ports present at call time; ports joining later re-check at
// Connect (which panics, as it does for its other configuration errors).
func (nw *Network) SetNodePool(id NodeID, cfg PoolConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if _, ok := nw.nodes[id]; !ok {
		return fmt.Errorf("netsim: SetNodePool: unknown node %d", id)
	}
	if nw.pools[id] != nil {
		return fmt.Errorf("netsim: node %d already has a pool", id)
	}
	bp := newBufferPool(cfg)
	if err := bp.carvePorts(len(nw.ports[id])); err != nil {
		return fmt.Errorf("netsim: node %d: %w", id, err)
	}
	nw.pools[id] = bp
	for slot, p := range nw.ports[id] {
		p.out.pool = bp
		p.out.poolSlot = int32(slot)
	}
	return nil
}

// PoolStats returns the current state of node id's buffer pool, drained to
// the network clock, and whether the node has one.
func (nw *Network) PoolStats(id NodeID) (PoolStats, bool) {
	bp := nw.pools[id]
	if bp == nil {
		return PoolStats{}, false
	}
	bp.drainTo(nw.Now())
	st := PoolStats{
		TotalBytes: bp.cfg.TotalBytes,
		Used:       bp.used,
		Committed:  bp.committed,
		HighWater:  bp.highWater,
		Drops:      bp.drops,
		Classes:    make([]ClassStats, len(bp.classes)),
	}
	for i, cl := range bp.classes {
		st.Classes[i] = ClassStats{
			ReserveBytes: cl.ReserveBytes,
			Alpha:        cl.Alpha,
			Used:         bp.cls[i].used,
			HighWater:    bp.cls[i].highWater,
			Drops:        bp.cls[i].drops,
		}
	}
	return st, true
}

// ResetPool zeroes node id's egress buffer occupancy accounting — the
// shared pool, when the node has one, and every port's private queue
// accounting either way, so pooled and poolless switches crash the same
// way. Note the model's granularity: netsim schedules a frame's delivery
// at admission time (there is no separate departure event), so frames
// admitted before the crash still arrive at their neighbors, exactly as
// SetLinkState's in-flight semantics keep already-accepted frames alive
// across a link failure. What the reset changes is admission:
// post-restart traffic sees empty queues instead of inheriting the dead
// boot's occupancy. busyTill is deliberately NOT reset — the pre-crash
// frames still occupy the serializer's timeline, so clearing it would
// transiently double the port's effective bandwidth. Fault injection calls
// it between RunUntil windows.
func (nw *Network) ResetPool(id NodeID) {
	if bp := nw.pools[id]; bp != nil {
		bp.reset()
	}
	for _, p := range nw.ports[id] {
		hl := p.out
		hl.queued = 0
		hl.inflight.clear()
	}
}
