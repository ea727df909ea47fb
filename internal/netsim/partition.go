package netsim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Partitioned parallel execution: the fabric is split into node-disjoint
// domains, each with its own event heap, synchronized with conservative
// lookahead windows (Kohring-style protocol-level parallelism). Every frame
// crossing a domain boundary is in flight for at least one serialization
// tick plus the link's propagation delay, so lookahead(i→j) — the minimum
// in-flight latency over cut links from domain i to domain j — bounds how
// soon anything domain i does can become visible in domain j.
//
// Synchronization is per communication channel, not global: each domain d
// gets its own earliest-input-time horizon
//
//	horizon_d = min over domains i of (eit_i + pathLookahead(i→d))
//
// where eit_i is the timestamp of i's earliest pending event and
// pathLookahead is the min-plus closure of the pair lookaheads (a chain of
// cut links through intermediate domains can undercut any direct link, and
// the i = d diagonal closes to the cheapest cycle so a domain's own echo
// is bounded too — see rebuildLookaheads). A peer with an empty heap
// contributes +∞ as a source — it can originate nothing this round (work
// relayed through it is charged to the originating domain's path), so it
// does not constrain d at all (up to the run's deadline). Domains whose
// upstream peers are far ahead therefore keep executing in wide windows
// instead of idling at the fleet-wide minimum; only domains whose horizon
// denies them progress sit a round out (counted as idle windows). The old
// scheme — every domain advances to the global minimum plus the minimum
// lookahead over ALL cut links — survives as SyncGlobal for comparison
// (the syncproto figure): one short cut link throttles it fleet-wide.
//
// The coordinator is deterministic by construction: horizons are pure
// functions of the per-domain heap states at the barrier, each round
// dispatches exactly the subset of domains that can progress, and mail is
// folded into peer heaps only at barriers when both endpoints are
// quiescent. Progress is guaranteed because the domain owning the global
// minimum always has a horizon strictly above its own eit (every lookahead
// is at least one tick).
//
// Determinism of results: events are totally ordered by (timestamp, origin,
// origin sequence) — see engine.go — and a mailed delivery carries the same
// key it would have had on a single shared heap. Each domain therefore
// executes exactly the events a sequential run would hand its nodes, in
// exactly the same order, making partitioned metrics byte-identical to
// sequential ones under either protocol (asserted by
// TestPartitionConformanceProperty here and by the registry conformance
// tests in internal/experiments).

// SyncProtocol selects the conservative synchronization scheme of a
// partitioned run. Results are byte-identical under either protocol; only
// scheduling (and therefore wall-clock and the SyncStats diagnostics)
// differs.
type SyncProtocol int

const (
	// SyncEIT (the default) gives each domain its own earliest-input-time
	// horizon from per-domain-pair lookaheads, treating empty peer heaps
	// as +∞.
	SyncEIT SyncProtocol = iota
	// SyncGlobal is the pre-EIT scheme: every domain advances to the
	// global earliest pending event plus the minimum lookahead over all
	// cut links. Kept for the syncproto comparison figure.
	SyncGlobal
)

// SetSyncProtocol selects the synchronization scheme. Call while the
// network is quiescent (setup, or a RunUntil control point). The zero
// value SyncEIT is the default.
func (nw *Network) SetSyncProtocol(p SyncProtocol) { nw.syncProto = p }

// SyncStats are the cumulative synchronization diagnostics of a
// partitioned run. Like arena occupancy they are cut-DEPENDENT — they
// change with the partition count, the protocol and the re-cut schedule —
// so telemetry exports them in the engine section, excluded from the
// byte-identity comparison. For a fixed configuration they are fully
// deterministic (the coordinator's decisions are pure functions of heap
// states at barriers), which is what lets the syncproto figure report
// them as exact metrics.
type SyncStats struct {
	Barriers    uint64 // coordinator rounds (quiescent rendezvous points)
	Windows     uint64 // per-domain execution windows dispatched
	IdleWindows uint64 // domain-rounds with pending work denied by the horizon
	MailFlushed uint64 // cross-domain deliveries folded into peer heaps
	HorizonSum  Time   // summed width (horizon - eit) of bounded windows
	HorizonN    uint64 // bounded windows (run-to-empty windows excluded)
}

// MeanHorizon is the effective mean width of bounded execution windows —
// wider windows mean fewer synchronizations per unit of virtual time.
func (s SyncStats) MeanHorizon() Time {
	if s.HorizonN == 0 {
		return 0
	}
	return s.HorizonSum / Time(s.HorizonN)
}

// SyncStats returns the network's cumulative synchronization diagnostics
// (zero while unpartitioned).
func (nw *Network) SyncStats() SyncStats { return nw.syncStats }

// DomainSync returns per-domain dispatched and idle window counts, indexed
// by domain — the per-domain view of SyncStats.Windows/IdleWindows. A
// domain idling most rounds is paying for a short incoming cut link.
func (nw *Network) DomainSync() (windows, idle []uint64) {
	windows = make([]uint64, len(nw.domains))
	idle = make([]uint64, len(nw.domains))
	for i, d := range nw.domains {
		windows[i] = d.windows
		idle[i] = d.idleWindows
	}
	return windows, idle
}

// mail is one cross-domain frame delivery in transit between heaps: the
// full ordering key plus the delivery record, payload by reference. It
// deliberately carries no arena slot — the source domain's arena never
// holds it, and the barrier re-slots it into the destination engine's
// arena via Engine.scheduleFrame (the handoff helper the arenaescape
// analyzer pins cross-domain sends to).
type mail struct {
	at    Time
	src   uint64
	seq   uint64
	dst   NodeID
	node  Node
	port  int32
	frame []byte
}

// domain is one partition: an engine, its node set, and one outbox per peer
// domain. Outboxes are written only by this domain's worker during a
// window and drained only at the barrier, so they need no locks.
type domain struct {
	idx   int
	eng   *Engine
	nodes []NodeID
	out   [][]mail // out[j]: deliveries destined for domain j

	// windows/idleWindows are this domain's share of SyncStats: rounds it
	// was dispatched vs rounds the horizon denied its pending work.
	windows     uint64
	idleWindows uint64
}

// maxTime is the horizon sentinel when nothing constrains a domain (no
// incoming cut links, or every in-neighbor heap empty): run everything in
// one window.
const maxTime = Time(math.MaxInt64)

// windowJob is one dispatched execution window. It carries the engine
// pointer so a parked worker retains no reference to any simulation state
// between runs — an idle Network is garbage-collectable even while its
// workers live (the finalizer backstop then releases them).
type windowJob struct {
	eng     *Engine
	horizon Time
	bud     *budget
}

// windowResult is one domain's outcome of the current round, written by
// its worker before wg.Done and read by the coordinator after wg.Wait.
type windowResult struct {
	exhausted bool
	panicked  any
}

// workerPool is the persistent per-domain execution crew, spawned once at
// Partition and fed one windowJob per dispatched window — Run/RunUntil no
// longer pay a goroutine spawn per domain per call, which the
// control-point-heavy telemetry RunSampled loop used to feel
// (BenchmarkPartitionRunUntilCadence). Workers park on their channel
// between jobs and exit when it closes.
type workerPool struct {
	work    []chan windowJob
	results []windowResult
	wg      sync.WaitGroup
	stop    atomic.Bool
	closed  sync.Once

	// coordinator scratch, reused across rounds and calls.
	eits     []Time
	horizons []Time
}

func newWorkerPool(n int) *workerPool {
	wp := &workerPool{
		work:     make([]chan windowJob, n),
		results:  make([]windowResult, n),
		eits:     make([]Time, n),
		horizons: make([]Time, n),
	}
	for i := range wp.work {
		ch := make(chan windowJob, 1)
		wp.work[i] = ch
		res := &wp.results[i]
		go func() {
			for job := range ch {
				func() {
					defer func() {
						if r := recover(); r != nil {
							res.panicked = r
							wp.stop.Store(true)
						}
						wp.wg.Done()
					}()
					if job.eng.runWindow(job.horizon, job.bud) {
						res.exhausted = true
						wp.stop.Store(true)
					}
				}()
			}
		}()
	}
	return wp
}

func (wp *workerPool) close() {
	wp.closed.Do(func() {
		for _, ch := range wp.work {
			close(ch)
		}
	})
}

// Close releases the persistent domain workers of a partitioned network.
// Idempotent; a closed network must not Run again. Calling it is optional:
// workers hold no reference to simulation state while parked, and a
// finalizer releases them when an unclosed Network becomes unreachable.
func (nw *Network) Close() {
	if nw.workers != nil {
		runtime.SetFinalizer(nw, nil)
		nw.workers.close()
	}
}

// Partition splits the fabric into one event-engine domain per node group
// and switches Run to the conservative parallel algorithm. It must be
// called after every AddNode/Connect and before any traffic is injected;
// with fewer than two non-empty groups it is a no-op and the network keeps
// its sequential single-engine fast path.
//
// Every node must appear in exactly one group. Any grouping is valid —
// correctness never depends on where the fabric is cut — but horizons are
// bounded by the latencies of incoming cut links, so cuts across
// longer-latency links (rack boundaries; see topology.Plan.PartitionGroups)
// synchronize less often and parallelize better.
func (nw *Network) Partition(groups [][]NodeID) error {
	nonEmpty := make([][]NodeID, 0, len(groups))
	for _, g := range groups {
		if len(g) > 0 {
			nonEmpty = append(nonEmpty, g)
		}
	}
	if len(nonEmpty) <= 1 {
		return nil
	}
	if nw.domains != nil {
		return fmt.Errorf("netsim: network already partitioned into %d domains", len(nw.domains))
	}
	if nw.Eng.Processed != 0 || nw.Eng.Pending() != 0 {
		return fmt.Errorf("netsim: Partition after events were scheduled (%d pending, %d processed)",
			nw.Eng.Pending(), nw.Eng.Processed)
	}

	doms := make([]*domain, len(nonEmpty))
	nodeDom := make(map[NodeID]*domain, len(nw.nodes))
	// All domain engines share one setup (origin-0) schedule counter: setup
	// code only runs while the network is quiescent, so the shared counter
	// stamps setup events with exactly the globally unique, program-ordered
	// keys a sequential run would — which keeps them totally ordered even
	// when a dynamic re-cut later merges events from two heaps into one.
	setupCtr := new(uint64)
	for i, g := range nonEmpty {
		d := &domain{idx: i, eng: NewEngine(), out: make([][]mail, len(nonEmpty))}
		d.eng.adoptSetupCounter(setupCtr)
		doms[i] = d
		for _, id := range g {
			if _, ok := nw.nodes[id]; !ok {
				return fmt.Errorf("netsim: partition group %d names unknown node %d", i, id)
			}
			if _, dup := nodeDom[id]; dup {
				return fmt.Errorf("netsim: node %d appears in two partition groups", id)
			}
			nodeDom[id] = d
			d.nodes = append(d.nodes, id)
		}
	}
	if len(nodeDom) != len(nw.nodes) {
		return fmt.Errorf("netsim: partition covers %d of %d nodes", len(nodeDom), len(nw.nodes))
	}

	nw.domains = doms
	nw.nodeDom = nodeDom
	nw.bindDomains(nodeDom)
	nw.workers = newWorkerPool(len(doms))
	// Backstop for callers that drop a partitioned Network without Close:
	// parked workers reference only the pool, never the Network, so the
	// Network stays collectable and this finalizer releases the goroutines.
	runtime.SetFinalizer(nw, (*Network).Close)
	nw.Eng = nil // all further scheduling must route through a domain
	return nil
}

// bindDomains points every half-link at its endpoints' domains, builds the
// node→incident-half-links index, and seeds the cut-link set and lookahead
// matrix. Called once by Partition; Repartition uses the incremental
// rebindDomains instead.
func (nw *Network) bindDomains(nodeDom map[NodeID]*domain) {
	nw.nodeHalf = make(map[NodeID][]*halfLink, len(nw.nodes))
	nw.cutHalf = nw.cutHalf[:0]
	for _, hl := range nw.half {
		nw.nodeHalf[hl.srcNode] = append(nw.nodeHalf[hl.srcNode], hl)
		nw.nodeHalf[hl.dstNode] = append(nw.nodeHalf[hl.dstNode], hl)
		hl.srcDom = nodeDom[hl.srcNode]
		hl.dstDom = nodeDom[hl.dstNode]
		if hl.srcDom != hl.dstDom && !hl.inCut {
			hl.inCut = true
			nw.cutHalf = append(nw.cutHalf, hl)
		}
	}
	nw.rebuildLookaheads()
}

// rebindDomains updates the domain bindings of links incident to moved
// nodes and refreshes the lookahead matrix from the maintained cut set —
// the Repartition fast path: O(moved nodes × degree + current cut links)
// instead of a full O(all links) rescan per re-cut, which matters at
// megaincast's jittered re-cut cadence.
func (nw *Network) rebindDomains(moved []NodeID, nodeDom map[NodeID]*domain) {
	for _, id := range moved {
		for _, hl := range nw.nodeHalf[id] {
			hl.srcDom = nodeDom[hl.srcNode]
			hl.dstDom = nodeDom[hl.dstNode]
			if hl.srcDom != hl.dstDom && !hl.inCut {
				hl.inCut = true
				nw.cutHalf = append(nw.cutHalf, hl)
			}
		}
	}
	nw.rebuildLookaheads()
}

// rebuildLookaheads recomputes the per-pair lookahead matrix and the
// global minimum from the cut-link set, compacting entries a re-cut pulled
// back inside one domain. A frame sent on a cut link at t arrives no
// earlier than t + 1 serialization tick + propagation, so every direct
// entry is at least one tick — the progress guarantee of the coordinator.
//
// The matrix is then closed over multi-hop relay paths (Floyd–Warshall in
// min-plus): influence can travel i→k→j through an intermediate domain's
// links with total latency below any direct i→j link, and the horizon must
// bound that chain too — a direct-edge-only bound lets a relayed frame
// arrive in its destination's past. The diagonal starts at +∞ and closes
// to the minimum cycle through each domain, guarding against a domain's
// own output echoing back to it; cycles have at least two edges, so the
// self-bound still sits strictly above the domain's own eit.
func (nw *Network) rebuildLookaheads() {
	n := len(nw.domains)
	if len(nw.la) != n {
		nw.la = make([][]Time, n)
		for i := range nw.la {
			nw.la[i] = make([]Time, n)
		}
	}
	for _, row := range nw.la {
		for j := range row {
			row[j] = maxTime
		}
	}
	global := maxTime
	kept := nw.cutHalf[:0]
	for _, hl := range nw.cutHalf {
		if hl.srcDom == hl.dstDom {
			hl.inCut = false // re-cut pulled this link inside a domain
			continue
		}
		kept = append(kept, hl)
		la := 1 + Duration(hl.cfg.Propagation)
		if row := nw.la[hl.srcDom.idx]; la < row[hl.dstDom.idx] {
			row[hl.dstDom.idx] = la
		}
		if la < global {
			global = la
		}
	}
	nw.cutHalf = kept
	nw.lookahead = global

	// Min-plus closure: O(domains³), domains is small (≤ GOMAXPROCS-ish)
	// and this runs only at Partition/Repartition, never on the hot path.
	for k := 0; k < n; k++ {
		rowK := nw.la[k]
		for i := 0; i < n; i++ {
			ik := nw.la[i][k]
			if ik == maxTime {
				continue
			}
			rowI := nw.la[i]
			for j := 0; j < n; j++ {
				if kj := rowK[j]; kj != maxTime && ik+kj < rowI[j] {
					rowI[j] = ik + kj
				}
			}
		}
	}
}

// Domains returns how many event-engine domains the network runs on
// (1 while unpartitioned).
func (nw *Network) Domains() int {
	if nw.domains == nil {
		return 1
	}
	return len(nw.domains)
}

// flushMail folds every outbox into its destination heap, re-slotting each
// delivery into the destination engine's frame arena. Called only at
// barriers (and before Run's error returns), when both endpoints of every
// pair are quiescent. Push order cannot affect pop order: each record
// carries its full deterministic key. Outbox slices are truncated and
// reused, so a steady-state cross-domain flow allocates nothing after
// warm-up.
func (nw *Network) flushMail() {
	for _, d := range nw.domains {
		for j := range d.out {
			box := d.out[j]
			if len(box) == 0 {
				continue
			}
			nw.syncStats.MailFlushed += uint64(len(box))
			peer := nw.domains[j].eng
			for i, m := range box {
				peer.scheduleFrame(m.at, m.src, m.seq, m.dst, m.node, m.port, m.frame)
				box[i] = mail{} // drop the payload reference for the GC
			}
			d.out[j] = box[:0]
		}
	}
}

// runPartitioned drains all domains with the conservative horizon
// algorithm. maxEvents bounds the TOTAL number of events executed across
// every domain (the same budget a sequential run counts); 0 means
// unlimited. The bound is drawn in chunks through a shared counter whose
// unspent allowance is refunded at every barrier, so the stop boundary is
// exact. deadline stops execution once no event <= deadline remains
// (maxTime = run to empty); on a deadline stop every domain clock is
// advanced to the deadline, so a partitioned RunUntil leaves exactly the
// state a sequential one would.
func (nw *Network) runPartitioned(maxEvents uint64, deadline Time) error {
	var bud *budget
	if maxEvents > 0 {
		bud = &budget{max: maxEvents}
	}
	wp := nw.workers
	for i := range wp.results {
		wp.results[i] = windowResult{}
	}
	wp.stop.Store(false)
	eits, horizons := wp.eits, wp.horizons

	// aligning/alignTarget implement the re-cut safety protocol: a re-cut
	// may change the lookahead matrix — typically shrinking some pair's
	// lookahead — so it may only be applied at an ALIGNED barrier, where
	// every pending event lies beyond every domain clock. (Applied at a
	// skewed barrier, the new, shorter lookaheads could let a lagging
	// domain's output arrive in a leading domain's past.) When a re-cut
	// comes due, the target freezes at the leading clock and horizons are
	// capped there until the whole fabric catches up; both the trigger and
	// the catch-up are pure functions of virtual time, so the schedule
	// stays deterministic.
	aligning := false
	var alignTarget Time

	for {
		// Barrier: mail flushed, no worker executing — the coordinator
		// owns all domain state here.
		nw.flushMail()
		next := maxTime
		for i, d := range nw.domains {
			if at, ok := d.eng.next(); ok {
				eits[i] = at
				if at < next {
					next = at
				}
			} else {
				eits[i] = maxTime
			}
		}
		if next == maxTime || next > deadline {
			// Equalize the domain clocks before returning quiescent: to the
			// deadline on a RunUntil stop, and to the fabric-wide last event
			// on a run-to-empty drain — exactly where a sequential engine's
			// single clock ends up. Traffic injected after the return is
			// then stamped sequentially-identically, and it can never land
			// in a leading domain's past.
			at := deadline
			if at == maxTime {
				at = 0
				for _, d := range nw.domains {
					if d.eng.now > at {
						at = d.eng.now
					}
				}
			}
			for _, d := range nw.domains {
				d.eng.advanceTo(at)
			}
			return nil
		}
		if nw.recut != nil && next >= nw.recut.nextAt && !aligning {
			aligning = true
			alignTarget = 0
			for _, d := range nw.domains {
				if d.eng.now > alignTarget {
					alignTarget = d.eng.now
				}
			}
		}
		if aligning && next > alignTarget {
			// Aligned: every pending event is beyond every clock, so any
			// new cut is safe. Trigger and schedule depend only on virtual
			// time and per-domain event counts — fully deterministic.
			// Migration moves events between heaps, so re-read the EITs.
			aligning = false
			if err := nw.maybeRecut(next); err != nil {
				return err
			}
			for i, d := range nw.domains {
				if at, ok := d.eng.next(); ok {
					eits[i] = at
				} else {
					eits[i] = maxTime
				}
			}
		}

		// Compute every domain's horizon from the barrier snapshot, then
		// dispatch the subset that can progress. The round's bookkeeping
		// (windows, idle windows, widths) is a pure function of the
		// snapshot, so the diagnostics are as deterministic as the results.
		nw.syncStats.Barriers++
		dispatched := 0
		for i, d := range nw.domains {
			horizons[i] = 0 // sentinel: not dispatched this round
			if eits[i] > deadline {
				continue // drained (within the deadline): not idle, done
			}
			h := maxTime
			if nw.syncProto == SyncGlobal {
				if nw.lookahead != maxTime {
					h = next + nw.lookahead
				}
			} else {
				for j := range nw.domains {
					la := nw.la[j][i]
					if la == maxTime || eits[j] == maxTime {
						// No lookahead path from j, or j's heap is empty:
						// j can originate nothing this round, so it does
						// not constrain this domain (+∞ rule).
						continue
					}
					if b := eits[j] + la; b < h {
						h = b
					}
				}
			}
			if deadline != maxTime && deadline+1 < h {
				h = deadline + 1
			}
			if aligning && alignTarget+1 < h {
				// A re-cut is due: cap every window at the leading clock so
				// the fabric converges to an aligned barrier. The global-min
				// domain always stays dispatchable (next <= alignTarget here),
				// so alignment makes progress every round.
				h = alignTarget + 1
			}
			if eits[i] >= h {
				// Pending work, denied by the horizon: the protocol's
				// idle cost — what SyncEIT shrinks on short-cut fabrics.
				d.idleWindows++
				nw.syncStats.IdleWindows++
				continue
			}
			horizons[i] = h
			d.windows++
			nw.syncStats.Windows++
			if h != maxTime {
				nw.syncStats.HorizonSum += h - eits[i]
				nw.syncStats.HorizonN++
			}
			dispatched++
		}

		wp.wg.Add(dispatched)
		for i, d := range nw.domains {
			if horizons[i] != 0 {
				wp.work[i] <- windowJob{eng: d.eng, horizon: horizons[i], bud: bud}
			}
		}
		wp.wg.Wait()

		if wp.stop.Load() {
			nw.flushMail()
			for i := range wp.results {
				if r := wp.results[i].panicked; r != nil {
					// Re-raise on the caller's goroutine, preserving the
					// sequential contract that node panics surface to (and
					// are recoverable by) whoever called Run.
					panic(r)
				}
			}
			// A domain's mid-window reserve can find the budget transiently
			// drained while chunks other domains were still holding get
			// refunded at the barrier; only a genuinely spent budget stops
			// the run, keeping used == executed == maxEvents exactly.
			if bud != nil && bud.used.Load() >= bud.max {
				return fmt.Errorf("netsim: event budget %d exhausted at t=%v (%d pending)",
					maxEvents, nw.Now(), nw.Pending())
			}
			wp.stop.Store(false)
			for i := range wp.results {
				wp.results[i] = windowResult{}
			}
		}
	}
}
