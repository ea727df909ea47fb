package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"github.com/daiet/daiet/internal/dataplane"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/wire"
)

// PHV slot assignment for the DAIET switch program. Integer slots carry
// parsed header fields and control metadata; byte slots alias frame regions.
const (
	slotIsDaiet = iota
	slotDaietType
	slotTreeID
	slotNumPairs
	slotFlags
	slotSeq
	slotAggregate // set when the tree table hits: this packet is ours
	slotFlushMode // persists across recirculation during a flush
	slotSenderIdx // 1 + sender index for reliable trees (0 = unknown)
)

const (
	bslotDstIP = iota
	bslotSrcIP
	bslotPairs
)

// ProgramConfig parameterizes one switch's DAIET program.
type ProgramConfig struct {
	// Geometry fixes the on-wire pair layout (default: the paper's 16-byte
	// keys + 4-byte values).
	Geometry wire.PairGeometry
	// MaxPairsPerPacket bounds pairs parsed per packet. Zero derives it
	// from the geometry and the hardware parse budget, then caps it at the
	// paper's 10.
	MaxPairsPerPacket int
	// SRAMBudget is the register file budget in bytes (default 10 MB, the
	// paper's §5 sizing).
	SRAMBudget int
	// Pipeline overrides dataplane limits (zero value = defaults).
	Pipeline dataplane.PipelineConfig
}

func (c ProgramConfig) withDefaults() ProgramConfig {
	if c.Geometry.KeyWidth == 0 {
		c.Geometry = wire.DefaultGeometry
	}
	if c.MaxPairsPerPacket == 0 {
		c.MaxPairsPerPacket = c.Geometry.MaxPairsPerPacket()
		if c.MaxPairsPerPacket > wire.DefaultMaxPairs {
			c.MaxPairsPerPacket = wire.DefaultMaxPairs
		}
	}
	if c.SRAMBudget == 0 {
		c.SRAMBudget = 10 << 20
	}
	return c
}

// TreeConfig is the per-switch slice of one aggregation tree, pushed by the
// controller (paper §4: tree ID, output port, aggregation function, and the
// number of children to expect traffic from).
type TreeConfig struct {
	TreeID    uint32 // == reducer's node ID
	OutPort   int    // port toward the next node in the tree
	Children  int    // how many tree children send to this switch
	Agg       AggFuncID
	TableSize int // cells in the key/value register arrays
	SpillCap  int // pairs the spillover bucket holds (default: one packet's worth)

	// Reliable enables the loss-recovery extension on this edge hop: the
	// switch accepts each sender's packets strictly in sequence order,
	// acknowledges cumulatively, and drops duplicates — keeping
	// aggregation exactly-once under sender retransmission. Senders lists
	// the node IDs allowed to feed this tree (required when Reliable).
	Reliable bool
	Senders  []uint32

	// Epoch tags the job round this configuration serves. Every packet
	// emitted downstream carries it in the flags high byte; with PinEpoch
	// set, DATA/END packets from any other epoch are dropped (and counted)
	// instead of aggregated. The fault-tolerant MapReduce driver pins one
	// epoch per recovery round so stale in-flight traffic from an aborted
	// round can never contaminate its successor.
	Epoch    uint8
	PinEpoch bool

	// DataClass/AckClass select the shared-buffer traffic class (see
	// netsim.PoolConfig.Classes) this tree's egress traffic is admitted
	// under on pooled switches: downstream DATA/END flushes, spills, and
	// replay retransmissions leave under DataClass; upstream cumulative
	// acknowledgements under AckClass. Multi-tenant installs give each
	// tenant's trees their own class so one tenant's incast cannot fill
	// another tenant's carved reserve floor. Both default to 0 (the pool's
	// first class); pools with fewer classes fold out-of-range classes to 0,
	// and poolless switches ignore them.
	DataClass int
	AckClass  int

	// Tenant tags the tree with the job/tenant that owns it — pure
	// attribution for multi-job runs (mapreduce.RunJobs); the dataplane
	// ignores it.
	Tenant int

	// RootReplay enables the switch-side downstream reliability extension
	// on this hop: the switch retains up to RootReplay emitted packets in
	// a bounded per-tree replay buffer until its tree parent cumulatively
	// acknowledges them, go-back-N retransmits on RootRTO timeout, and
	// pauses the flush loop (VerdictStall) while the buffer is full. On a
	// tree's root switch the acknowledging parent is the reducer's
	// collector (EnableRootAck); on an interior switch it is the parent
	// switch's reliable gate — configure every switch this way (with each
	// parent's Senders listing its child switches) for hop-by-hop
	// reliable trees, as the bigincast experiment does. RootRTO defaults
	// to 500µs.
	RootReplay int
	RootRTO    time.Duration
}

// TreeStats counts one tree's activity on one switch.
type TreeStats struct {
	DataPacketsIn uint64
	EndPacketsIn  uint64
	PairsIn       uint64
	PairsStored   uint64 // stored into an empty cell
	PairsCombined uint64 // aggregated into an existing cell
	PairsSpilled  uint64 // hash collision, sent to spillover

	SpillPacketsOut  uint64
	FlushPacketsOut  uint64
	PairsFlushed     uint64 // pairs sent downstream from registers
	PairsSpillSent   uint64 // pairs sent downstream from the spillover bucket
	EndPacketsOut    uint64
	FlushesCompleted uint64

	// Reliability-extension counters.
	AcksOut       uint64 // cumulative ACKs emitted to senders
	DupsDropped   uint64 // in-window duplicates discarded (re-ACKed)
	GapsDropped   uint64 // out-of-order packets discarded (await retransmit)
	UnknownSender uint64 // reliable packets from unregistered senders

	// Epoch-pinning and root-replay counters.
	StaleEpochDropped   uint64 // DATA/END from a non-pinned epoch, discarded
	RootAcksIn          uint64 // collector ACKs consumed
	RootRetransmissions uint64 // replay-buffer go-back-N retransmissions
	FlushStalls         uint64 // flush passes paused on a full replay buffer
}

// treeState bundles the registers backing one tree on one switch.
type treeState struct {
	cfg TreeConfig
	agg AggFunc

	keys      *dataplane.ByteRegister // key per cell
	vals      *dataplane.Register     // 4-byte value per cell
	valid     *dataplane.Register     // occupancy bit per cell
	stack     *dataplane.Register     // index stack (used-cell indices)
	stackTop  *dataplane.Register     // 1 cell
	spill     *dataplane.ByteRegister // spillover bucket, one pair per cell
	spillCnt  *dataplane.Register     // 1 cell
	remaining *dataplane.Register     // 1 cell: pending children ENDs
	seq       *dataplane.Register     // 1 cell: egress sequence numbers

	// Reliability extension (nil unless cfg.Reliable).
	senderTable *dataplane.Table    // src IP -> sender index
	expSeq      *dataplane.Register // next expected sequence per sender
	epoch       *dataplane.Register // current round epoch per sender
	lastFinal   *dataplane.Register // final cumulative ack of the previous epoch

	// Root-replay extension (cfg.RootReplay > 0): emitted packets retained
	// until cumulatively acknowledged. replayBase is the sequence number of
	// replay[0]; entries are consecutive.
	replay        []replayPkt
	replayBase    uint32
	replayTimerOn bool
	replayGen     int

	Stats TreeStats
}

// replayPkt is one retained downstream packet: enough to retransmit it,
// including the traffic class the original emission left under.
type replayPkt struct {
	port  int
	class int
	frame []byte
}

// regNames lists the register names a tree allocates, for teardown.
func treeRegNames(id uint32) []string {
	return []string{
		fmt.Sprintf("tree%d_keys", id),
		fmt.Sprintf("tree%d_vals", id),
		fmt.Sprintf("tree%d_valid", id),
		fmt.Sprintf("tree%d_stack", id),
		fmt.Sprintf("tree%d_stacktop", id),
		fmt.Sprintf("tree%d_spill", id),
		fmt.Sprintf("tree%d_spillcnt", id),
		fmt.Sprintf("tree%d_remaining", id),
		fmt.Sprintf("tree%d_seq", id),
		fmt.Sprintf("tree%d_expseq", id),
		fmt.Sprintf("tree%d_epoch", id),
		fmt.Sprintf("tree%d_lastfinal", id),
	}
}

// Program is the DAIET switch program: Algorithm 1 of the paper compiled
// against the dataplane pipeline, plus baseline IPv4 forwarding for all
// other traffic (and for DAIET trees that are not configured — which is
// exactly the paper's "UDP baseline without in-network aggregation").
type Program struct {
	cfg      ProgramConfig
	geom     wire.PairGeometry
	maxPairs int

	regs      *dataplane.RegisterFile
	pipe      *dataplane.Pipeline
	sw        *dataplane.Switch
	treeTable *dataplane.Table
	fwdTable  *dataplane.Table
	trees     map[uint32]*treeState

	// crashes counts Crash calls — the "boot generation" a liveness monitor
	// compares across polls to detect crash-restart cycles shorter than its
	// polling period.
	crashes uint64
	selfIP  wire.IPv4Addr // lazily cached IPFromNode(switch ID)
}

// NewProgram builds the pipeline and wraps it in a Switch ready to be added
// to a fabric.
func NewProgram(cfg ProgramConfig) (*Program, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	// Load-time feasibility: the parser must be able to extract a full
	// packet's pairs within the hardware parse budget. Rejecting here
	// mirrors a P4 program failing to compile to the target, instead of
	// silently dropping full packets at run time.
	pcfg := cfg.Pipeline
	parseBudget := pcfg.ParseBudget
	if parseBudget == 0 {
		parseBudget = wire.MaxParseBudget
	}
	headers := wire.EthernetHeaderLen + wire.IPv4HeaderLen + wire.UDPHeaderLen + wire.DaietHeaderLen
	if need := headers + cfg.MaxPairsPerPacket*cfg.Geometry.PairWidth(); need > parseBudget {
		return nil, fmt.Errorf(
			"core: %d pairs of %d-byte keys need %d parse bytes, budget is %d",
			cfg.MaxPairsPerPacket, cfg.Geometry.KeyWidth, need, parseBudget)
	}
	p := &Program{
		cfg:      cfg,
		geom:     cfg.Geometry,
		maxPairs: cfg.MaxPairsPerPacket,
		regs:     dataplane.NewRegisterFile(cfg.SRAMBudget),
		trees:    make(map[uint32]*treeState),
	}
	p.treeTable = dataplane.NewTable("daiet_trees", dataplane.MatchExact)
	p.fwdTable = dataplane.NewTable("ipv4_fwd", dataplane.MatchExact)

	p.pipe = dataplane.NewPipeline("daiet", p.parse, cfg.Pipeline)
	if err := p.pipe.AddStage("tree_lookup", p.stageTreeLookup); err != nil {
		return nil, err
	}
	if err := p.pipe.AddStage("aggregate", p.stageAggregate); err != nil {
		return nil, err
	}
	if err := p.pipe.AddStage("forward", p.stageForward); err != nil {
		return nil, err
	}
	p.sw = dataplane.NewSwitch(p.pipe, p.regs)
	return p, nil
}

// Switch returns the fabric node running this program.
func (p *Program) Switch() *dataplane.Switch { return p.sw }

// Registers exposes the register file (controller/diagnostics use).
func (p *Program) Registers() *dataplane.RegisterFile { return p.regs }

// Geometry returns the program's pair geometry.
func (p *Program) Geometry() wire.PairGeometry { return p.geom }

// MaxPairsPerPacket returns the per-packet pair bound.
func (p *Program) MaxPairsPerPacket() int { return p.maxPairs }

// TreeStats returns a copy of the named tree's counters.
func (p *Program) TreeStats(treeID uint32) (TreeStats, bool) {
	st, ok := p.trees[treeID]
	if !ok {
		return TreeStats{}, false
	}
	return st.Stats, true
}

// TreeResidency is a point-in-time gauge of one tree's register-file
// occupancy — the state a telemetry probe samples on cadence, as opposed
// to TreeStats' cumulative counters. All four gauges are plain reads of
// switch-local registers, so sampling them from the switch's own timer
// context is race-free and deterministic.
type TreeResidency struct {
	Cells      int // occupied aggregation cells (stack depth)
	TableSize  int // configured cell capacity
	SpillPairs int // pairs parked in the spillover bucket
	ReplayLen  int // retained root-replay packets awaiting ack
}

// TreeResidency returns the named tree's current register residency.
func (p *Program) TreeResidency(treeID uint32) (TreeResidency, bool) {
	st, ok := p.trees[treeID]
	if !ok {
		return TreeResidency{}, false
	}
	return TreeResidency{
		Cells:      int(st.stackTop.Cells[0]),
		TableSize:  st.valid.Len(),
		SpillPairs: int(st.spillCnt.Cells[0]),
		ReplayLen:  len(st.replay),
	}, true
}

// Trees returns the configured tree IDs in ascending order (the tree set
// is a map; iteration order must not leak into reports).
func (p *Program) Trees() []uint32 {
	out := make([]uint32, 0, len(p.trees))
	for id := range p.trees {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InstallRoute adds plain IPv4 forwarding: packets addressed to node dst
// leave through port.
func (p *Program) InstallRoute(dst uint32, port int) error {
	ip := wire.IPFromNode(dst)
	return p.fwdTable.AddExact(ip[:], dataplane.Entry{
		Action: func(c *dataplane.Ctx, params []uint64) { c.Forward(int(params[0])) },
		Params: []uint64{uint64(port)},
	})
}

// ReserveRoutes sizes an empty forwarding table for n routes ahead of a
// bulk InstallRoute push, so the push does not rehash as the table grows.
func (p *Program) ReserveRoutes(n int) { p.fwdTable.Reserve(n) }

// ConfigureTree allocates the tree's registers and activates aggregation
// for its tree ID. Allocation failures (SRAM exhausted) roll back cleanly.
//
//simlint:framecopy control-plane call, once per tree install; the copy is deliberate — defaults are patched into the local cfg before it is stored
func (p *Program) ConfigureTree(cfg TreeConfig) (err error) {
	if _, dup := p.trees[cfg.TreeID]; dup {
		return fmt.Errorf("core: tree %d already configured", cfg.TreeID)
	}
	if cfg.TableSize <= 0 {
		return fmt.Errorf("core: tree %d: table size %d", cfg.TreeID, cfg.TableSize)
	}
	if cfg.Children <= 0 {
		return fmt.Errorf("core: tree %d: children %d", cfg.TreeID, cfg.Children)
	}
	if cfg.SpillCap == 0 {
		cfg.SpillCap = p.maxPairs
	}
	if cfg.RootReplay > 0 && cfg.RootRTO == 0 {
		cfg.RootRTO = 500 * time.Microsecond
	}
	agg, err := FuncByID(cfg.Agg)
	if err != nil {
		return err
	}

	names := treeRegNames(cfg.TreeID)
	defer func() {
		if err != nil {
			for _, n := range names {
				p.regs.Free(n)
			}
		}
	}()

	st := &treeState{cfg: cfg, agg: agg}
	if st.keys, err = p.regs.AllocByteRegister(names[0], p.geom.KeyWidth, cfg.TableSize); err != nil {
		return err
	}
	if st.vals, err = p.regs.AllocRegister(names[1], wire.ValueWidth, cfg.TableSize); err != nil {
		return err
	}
	if st.valid, err = p.regs.AllocRegister(names[2], 1, cfg.TableSize); err != nil {
		return err
	}
	if st.stack, err = p.regs.AllocRegister(names[3], 4, cfg.TableSize); err != nil {
		return err
	}
	if st.stackTop, err = p.regs.AllocRegister(names[4], 4, 1); err != nil {
		return err
	}
	if st.spill, err = p.regs.AllocByteRegister(names[5], p.geom.PairWidth(), cfg.SpillCap); err != nil {
		return err
	}
	if st.spillCnt, err = p.regs.AllocRegister(names[6], 2, 1); err != nil {
		return err
	}
	if st.remaining, err = p.regs.AllocRegister(names[7], 4, 1); err != nil {
		return err
	}
	if st.seq, err = p.regs.AllocRegister(names[8], 4, 1); err != nil {
		return err
	}
	if cfg.Reliable {
		if len(cfg.Senders) == 0 {
			err = fmt.Errorf("core: tree %d: reliable mode needs a sender list", cfg.TreeID)
			return err
		}
		if st.expSeq, err = p.regs.AllocRegister(names[9], 4, len(cfg.Senders)); err != nil {
			return err
		}
		if st.epoch, err = p.regs.AllocRegister(names[10], 1, len(cfg.Senders)); err != nil {
			return err
		}
		if st.lastFinal, err = p.regs.AllocRegister(names[11], 4, len(cfg.Senders)); err != nil {
			return err
		}
		st.senderTable = dataplane.NewTable(fmt.Sprintf("tree%d_senders", cfg.TreeID), dataplane.MatchExact)
		for i, sender := range cfg.Senders {
			ip := wire.IPFromNode(sender)
			if err = st.senderTable.AddExact(ip[:], dataplane.Entry{
				Action: func(c *dataplane.Ctx, params []uint64) {
					c.U[slotSenderIdx] = params[0] + 1
				},
				Params: []uint64{uint64(i)},
			}); err != nil {
				return err
			}
		}
	}
	// Control-plane initialization (not metered: the controller writes
	// registers out of band, like a P4Runtime register write).
	st.remaining.Cells[0] = uint64(cfg.Children)

	var key [4]byte
	binary.BigEndian.PutUint32(key[:], cfg.TreeID)
	if err = p.treeTable.AddExact(key[:], dataplane.Entry{
		Action: func(c *dataplane.Ctx, _ []uint64) { c.U[slotAggregate] = 1 },
	}); err != nil {
		return err
	}
	p.trees[cfg.TreeID] = st
	return nil
}

// DrainTree is the control-plane escape hatch for failure handling (paper
// §2: "an application should be no worse than without in-network
// computation"): it reads every aggregated pair still held in the tree's
// registers — via the index stack, plus the spillover bucket — resets the
// tree's state for a fresh round, and returns the pairs so the controller
// can deliver them out of band (for example when a job is cancelled or a
// switch must be reconfigured mid-round). Reads are control-plane register
// access (P4Runtime-style), not metered dataplane work.
func (p *Program) DrainTree(treeID uint32) ([]KV, error) {
	st, ok := p.trees[treeID]
	if !ok {
		return nil, fmt.Errorf("core: drain: tree %d not configured", treeID)
	}
	var out []KV
	top := int(st.stackTop.Cells[0])
	for i := 0; i < top; i++ {
		idx := int(st.stack.Cells[i])
		if idx < 0 || idx >= st.valid.Len() || st.valid.Cells[idx] == 0 {
			continue
		}
		out = append(out, KV{
			Key:   string(wire.TrimKey(st.keys.Cell(idx))),
			Value: uint32(st.vals.Cells[idx]),
		})
		st.valid.Cells[idx] = 0
	}
	st.stackTop.Cells[0] = 0
	cnt := int(st.spillCnt.Cells[0])
	for i := 0; i < cnt; i++ {
		cell := st.spill.Cell(i)
		out = append(out, KV{
			Key:   string(wire.TrimKey(cell[:p.geom.KeyWidth])),
			Value: binary.BigEndian.Uint32(cell[p.geom.KeyWidth:]),
		})
	}
	st.spillCnt.Cells[0] = 0
	st.remaining.Cells[0] = uint64(st.cfg.Children)
	return out, nil
}

// Crash simulates a switch power failure: all dataplane state — every
// tree's registers (including partial aggregates and replay buffers), the
// tree table, the forwarding table, and the shared packet-memory occupancy
// accounting — is lost, and the switch drops all traffic until Restart.
// It returns how many aggregated pairs were resident in switch memory at
// the moment of the crash: the partial aggregates a recovery protocol
// must re-drive. Call only while the network is quiescent (a
// fault-injection control point).
func (p *Program) Crash() (lostPairs int) {
	ids := make([]uint32, 0, len(p.trees))
	for id, st := range p.trees {
		lostPairs += int(st.stackTop.Cells[0]) + int(st.spillCnt.Cells[0])
		ids = append(ids, id)
	}
	// Tear down in ascending tree order: RemoveTree cancels replay state,
	// and crash handling must replay identically on every run.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p.RemoveTree(id)
	}
	p.fwdTable.Clear()
	p.crashes++
	p.sw.SetDown(true)
	p.sw.ResetBuffers()
	return lostPairs
}

// Restart revives a crashed switch with empty tables: it forwards nothing
// and aggregates nothing until the controller reinstalls routing and
// trees, exactly like a rebooted device joining the fabric.
func (p *Program) Restart() { p.sw.SetDown(false) }

// Alive reports whether the switch is up (responding to the control
// plane).
func (p *Program) Alive() bool { return !p.sw.Down() }

// Crashes returns the boot-generation counter: how many times the switch
// has crashed. A liveness monitor that sees the generation advance between
// polls knows a crash-restart cycle happened even if every poll found the
// switch up.
func (p *Program) Crashes() uint64 { return p.crashes }

// RemoveTree tears one tree down, freeing its registers.
func (p *Program) RemoveTree(treeID uint32) {
	if _, ok := p.trees[treeID]; !ok {
		return
	}
	var key [4]byte
	binary.BigEndian.PutUint32(key[:], treeID)
	p.treeTable.DeleteExact(key[:])
	for _, n := range treeRegNames(treeID) {
		p.regs.Free(n)
	}
	delete(p.trees, treeID)
}

// parse is the pipeline's parser: Ethernet, IPv4, then (for DAIET packets)
// UDP, the DAIET preamble and the pair area — all within the hardware parse
// budget enforced by Ctx.Extract.
func (p *Program) parse(c *dataplane.Ctx) error {
	eh := c.Extract(wire.EthernetHeaderLen)
	if c.Err() != nil {
		return c.Err()
	}
	if binary.BigEndian.Uint16(eh[12:14]) != wire.EtherTypeIPv4 {
		return wire.ErrBadEtherType
	}
	ih := c.Extract(wire.IPv4HeaderLen)
	if c.Err() != nil {
		return c.Err()
	}
	c.B[bslotSrcIP] = ih[12:16]
	c.B[bslotDstIP] = ih[16:20]
	c.U[slotIsDaiet] = 0
	if ih[9] != wire.ProtocolUDP {
		return nil
	}
	uh := c.Extract(wire.UDPHeaderLen)
	if c.Err() != nil {
		return c.Err()
	}
	if binary.BigEndian.Uint16(uh[2:4]) != wire.UDPPortDaiet {
		return nil
	}
	dh := c.Extract(wire.DaietHeaderLen)
	if c.Err() != nil {
		return c.Err()
	}
	if binary.BigEndian.Uint16(dh[0:2]) != wire.DaietMagic {
		return wire.ErrBadMagic
	}
	if dh[2] != wire.DaietVersion {
		return wire.ErrBadDaietVer
	}
	numPairs := int(binary.BigEndian.Uint16(dh[12:14]))
	if numPairs > p.maxPairs {
		// A hardware parser could not have extracted this many pairs.
		return fmt.Errorf("%w: %d pairs exceed parser capacity %d",
			wire.ErrBadLength, numPairs, p.maxPairs)
	}
	c.U[slotDaietType] = uint64(dh[3])
	c.U[slotTreeID] = uint64(binary.BigEndian.Uint32(dh[4:8]))
	c.U[slotSeq] = uint64(binary.BigEndian.Uint32(dh[8:12]))
	c.U[slotNumPairs] = uint64(numPairs)
	c.U[slotFlags] = uint64(binary.BigEndian.Uint16(dh[14:16]))
	if numPairs > 0 {
		c.B[bslotPairs] = c.Extract(numPairs * p.geom.PairWidth())
		if c.Err() != nil {
			return c.Err()
		}
	} else {
		c.B[bslotPairs] = nil
	}
	c.U[slotIsDaiet] = 1
	return nil
}

// stageTreeLookup matches the packet's tree ID against configured trees.
func (p *Program) stageTreeLookup(c *dataplane.Ctx) {
	c.U[slotAggregate] = 0
	if c.U[slotIsDaiet] != 1 {
		return
	}
	var key [4]byte
	binary.BigEndian.PutUint32(key[:], uint32(c.U[slotTreeID]))
	c.Apply(p.treeTable, key[:])
}

// stageAggregate runs Algorithm 1 for packets belonging to a configured
// tree; other packets pass through untouched.
func (p *Program) stageAggregate(c *dataplane.Ctx) {
	if c.U[slotAggregate] != 1 {
		return
	}
	st := p.trees[uint32(c.U[slotTreeID])]
	if st == nil {
		// Table and map out of sync would be a control-plane bug; fail to
		// plain forwarding rather than corrupting state.
		c.U[slotAggregate] = 0
		return
	}
	if c.U[slotFlushMode] == 1 {
		if st.cfg.PinEpoch && uint8(c.U[slotFlags]>>8) != st.cfg.Epoch {
			// Zombie flush: a recirculating flush context from an aborted
			// round outlived its tree, and the tree ID is now occupied by a
			// fresh epoch. Draining the new round's registers here would
			// corrupt it — kill the context instead.
			st.Stats.StaleEpochDropped++
			c.U[slotFlushMode] = 0
			c.Drop()
			return
		}
		p.flushPass(c, st)
		return
	}
	typ := wire.DaietType(c.U[slotDaietType])
	if typ == wire.TypeAck && st.cfg.RootReplay > 0 && p.isSelf(c.B[bslotDstIP]) {
		// A collector acknowledgement for this switch's own downstream
		// stream: consume it against the replay buffer.
		p.handleRootAck(c, st)
		return
	}
	if typ != wire.TypeData && typ != wire.TypeEnd {
		// ACK/NACK belong to the end-host reliability extension; the base
		// program lets them through to their destination.
		c.U[slotAggregate] = 0
		return
	}
	if st.cfg.PinEpoch && uint8(c.U[slotFlags]>>8) != st.cfg.Epoch {
		// Stale traffic from another round (an aborted predecessor, or a
		// straggler that outlived its tree): exactly-once across recovery
		// rounds requires dropping it, never aggregating it.
		st.Stats.StaleEpochDropped++
		c.Drop()
		return
	}
	if st.cfg.Reliable && !p.reliableGate(c, st) {
		return // duplicate, gap, or unknown sender: already handled
	}
	switch typ {
	case wire.TypeData:
		p.aggregateData(c, st)
	case wire.TypeEnd:
		p.handleEnd(c, st)
	}
}

// reliableGate enforces per-sender, per-epoch in-order delivery and emits
// cumulative ACKs. It returns true when the packet is the next expected
// one and should be processed.
//
// Epoch rules (mod 256, "newer" = forward distance < 128):
//   - same epoch: classic go-back-N — accept seq==exp, re-ACK duplicates,
//     dup-ACK gaps;
//   - newer epoch with seq 0: a fresh round begins — adopt it;
//   - newer epoch with seq > 0: the round's opener was lost — drop and
//     wait for go-back-N to resend from 0;
//   - older epoch: a straggler of a finished round — re-ACK its recorded
//     final cumulative sequence so the sender can terminate.
func (p *Program) reliableGate(c *dataplane.Ctx, st *treeState) bool {
	c.U[slotSenderIdx] = 0
	c.Apply(st.senderTable, c.B[bslotSrcIP])
	if c.Err() != nil {
		return false
	}
	if c.U[slotSenderIdx] == 0 {
		st.Stats.UnknownSender++
		c.Drop()
		return false
	}
	idx := int(c.U[slotSenderIdx] - 1)
	src := wire.IPv4Addr{c.B[bslotSrcIP][0], c.B[bslotSrcIP][1], c.B[bslotSrcIP][2], c.B[bslotSrcIP][3]}.NodeID()
	pktEpoch := uint8(c.U[slotFlags] >> 8)
	curEpoch := uint8(c.RegRead(st.epoch, idx))
	seq := uint32(c.U[slotSeq])

	if pktEpoch != curEpoch {
		if epochNewer(pktEpoch, curEpoch) {
			if seq != 0 {
				// New round but its first packet is missing: go-back-N
				// will resend from 0.
				st.Stats.GapsDropped++
				c.Drop()
				return false
			}
			// Record the finished round's final ACK before adopting the
			// new epoch.
			c.RegWrite(st.lastFinal, idx, c.RegRead(st.expSeq, idx))
			c.RegWrite(st.epoch, idx, uint64(pktEpoch))
			c.RegWrite(st.expSeq, idx, 0)
			curEpoch = pktEpoch
			// Fall through to the same-epoch logic with exp == 0.
		} else {
			// Straggler of a previous epoch (its final ACK was lost):
			// re-acknowledge that round's completion.
			st.Stats.DupsDropped++
			p.emitAck(c, st, src, uint32(c.RegRead(st.lastFinal, idx)), pktEpoch)
			c.Drop()
			return false
		}
	}

	exp := uint32(c.RegRead(st.expSeq, idx))
	switch {
	case seq == exp:
		c.RegWrite(st.expSeq, idx, uint64(exp+1))
		if wire.DaietType(c.U[slotDaietType]) == wire.TypeEnd {
			// The stream is complete: remember its final cumulative ACK
			// for post-round stragglers.
			c.RegWrite(st.lastFinal, idx, uint64(exp+1))
		}
		p.emitAck(c, st, src, exp+1, curEpoch)
		return c.Err() == nil
	case seq < exp:
		// Duplicate of something already aggregated: re-ACK, do not
		// re-apply (exactly-once aggregation under retransmission).
		st.Stats.DupsDropped++
		p.emitAck(c, st, src, exp, curEpoch)
		c.Drop()
		return false
	default:
		// Gap: an earlier packet was lost; dup-ACK the prefix we hold.
		st.Stats.GapsDropped++
		p.emitAck(c, st, src, exp, curEpoch)
		c.Drop()
		return false
	}
}

// isSelf reports whether ip is this switch's own address (valid once the
// switch is attached to a fabric; cached after first use).
func (p *Program) isSelf(ip []byte) bool {
	if p.selfIP == (wire.IPv4Addr{}) {
		p.selfIP = wire.IPFromNode(uint32(p.sw.ID()))
	}
	return len(ip) == 4 && wire.IPv4Addr{ip[0], ip[1], ip[2], ip[3]} == p.selfIP
}

// handleRootAck consumes a collector's cumulative acknowledgement of this
// tree's downstream stream: every replay entry below the ACKed sequence is
// released, and the retransmit timer is re-armed over what remains.
func (p *Program) handleRootAck(c *dataplane.Ctx, st *treeState) {
	if st.cfg.PinEpoch && uint8(c.U[slotFlags]>>8) != st.cfg.Epoch {
		// A straggler ACK from a previous round: honoring its cumulative
		// sequence against this round's replay buffer would release
		// packets the collector never acknowledged.
		st.Stats.StaleEpochDropped++
		c.Drop()
		return
	}
	st.Stats.RootAcksIn++
	ack := uint32(c.U[slotSeq])
	if n := int(int32(ack - st.replayBase)); n > 0 {
		if n > len(st.replay) {
			n = len(st.replay)
		}
		st.replay = st.replay[n:]
		st.replayBase += uint32(n)
		st.replayGen++ // progress: restart the retransmit clock
		st.replayTimerOn = false
		p.armReplayTimer(st)
	}
	c.Drop() // consumed
}

// recordReplay retains one just-emitted downstream packet for
// retransmission and arms the timer. The frame is copied: the emitted
// original is owned by the fabric once transmitted.
func (p *Program) recordReplay(st *treeState, port int, frame []byte) {
	st.replay = append(st.replay, replayPkt{
		port: port, class: st.cfg.DataClass, frame: append([]byte(nil), frame...)})
	p.armReplayTimer(st)
}

// replayFull reports whether the bounded replay buffer has no room for
// another emission — the flush loop's backpressure signal.
func (p *Program) replayFull(st *treeState) bool {
	return st.cfg.RootReplay > 0 && len(st.replay) >= st.cfg.RootReplay
}

func (p *Program) armReplayTimer(st *treeState) {
	if st.replayTimerOn || len(st.replay) == 0 {
		return
	}
	st.replayTimerOn = true
	gen := st.replayGen
	p.sw.After(netsim.Duration(st.cfg.RootRTO), func() { p.onReplayTimer(st, gen) })
}

// onReplayTimer is the go-back-N retransmission path for the
// switch→reducer hop: everything unacknowledged is re-injected. There is
// no give-up bound — job-level recovery owns liveness decisions; the
// caller's event budget bounds pathological cases.
func (p *Program) onReplayTimer(st *treeState, gen int) {
	if gen != st.replayGen {
		// Superseded: an ACK already restarted the retransmit clock and a
		// newer timer chain owns replayTimerOn — clearing it here would
		// let a duplicate chain be armed alongside that one.
		return
	}
	st.replayTimerOn = false
	if len(st.replay) == 0 {
		return
	}
	if p.trees[st.cfg.TreeID] != st {
		return // tree torn down (or switch crashed) since arming
	}
	for _, pkt := range st.replay {
		p.sw.InjectClass(pkt.port, pkt.class, append([]byte(nil), pkt.frame...))
		st.Stats.RootRetransmissions++
	}
	p.armReplayTimer(st)
}

// epochNewer reports whether a is ahead of b in mod-256 arithmetic.
func epochNewer(a, b uint8) bool {
	d := a - b
	return d != 0 && d < 128
}

// emitAck sends a cumulative acknowledgement back toward the sender
// through the ingress port, tagged with the epoch it acknowledges.
func (p *Program) emitAck(c *dataplane.Ctx, st *treeState, dst uint32, cumSeq uint32, epoch uint8) {
	buf := wire.NewBuffer(wire.DefaultHeadroom, 0)
	hdr := wire.DaietHeader{
		Type:   wire.TypeAck,
		TreeID: st.cfg.TreeID,
		Seq:    cumSeq,
		Flags:  uint16(epoch) << 8,
	}
	frame := wire.BuildDaietFrame(buf, hdr, uint32(p.sw.ID()), dst, wire.UDPPortDaiet)
	c.EmitClass(c.InPort, st.cfg.AckClass, frame)
	st.Stats.AcksOut++
}

// stageForward routes any packet the aggregation stage did not consume.
func (p *Program) stageForward(c *dataplane.Ctx) {
	if c.U[slotAggregate] == 1 {
		return
	}
	c.Apply(p.fwdTable, c.B[bslotDstIP])
}

// aggregateData is the DATA_PACKET arm of Algorithm 1: for each pair, hash
// the key to a cell; store into an empty cell (pushing the index), combine
// on key match, spill on collision. The packet itself is consumed — this
// is where the traffic reduction happens.
func (p *Program) aggregateData(c *dataplane.Ctx, st *treeState) {
	n := int(c.U[slotNumPairs])
	pw := p.geom.PairWidth()
	kw := p.geom.KeyWidth
	pairs := c.B[bslotPairs]
	// The per-pair body is conceptually unrolled n <= maxPairs times (the
	// paper's manual loop unrolling); every primitive inside is metered.
	for i := 0; i < n; i++ {
		pair := pairs[i*pw : (i+1)*pw]
		key := pair[:kw]
		val := binary.BigEndian.Uint32(pair[kw:])
		st.Stats.PairsIn++

		idx := c.HashIndex(key, st.cfg.TableSize)
		occupied := c.RegRead(st.valid, idx)
		if c.Err() != nil {
			return
		}
		switch {
		case occupied == 0:
			c.BRegWrite(st.keys, idx, key)
			c.RegWrite(st.vals, idx, uint64(val))
			c.RegWrite(st.valid, idx, 1)
			top := c.RegRead(st.stackTop, 0)
			c.RegWrite(st.stack, int(top), uint64(idx))
			c.RegWrite(st.stackTop, 0, top+1)
			st.Stats.PairsStored++
		case bytes.Equal(c.BRegRead(st.keys, idx), key):
			cur := c.RegRead(st.vals, idx)
			c.RegWrite(st.vals, idx, uint64(st.agg.Combine(uint32(cur), val)))
			st.Stats.PairsCombined++
		default:
			p.spillPair(c, st, pair)
			st.Stats.PairsSpilled++
		}
		if c.Err() != nil {
			return
		}
	}
	st.Stats.DataPacketsIn++
	c.Drop() // consumed: pairs now live in switch state
}

// spillPair implements the collision path: append the pair to the spillover
// bucket; when full, its contents leave immediately toward the next node
// ("the non-aggregated values in the spillover bucket are the first to be
// sent").
func (p *Program) spillPair(c *dataplane.Ctx, st *treeState, pair []byte) {
	cnt := int(c.RegRead(st.spillCnt, 0))
	c.BRegWrite(st.spill, cnt, pair)
	cnt++
	if cnt >= st.cfg.SpillCap {
		p.emitSpill(c, st, cnt)
		cnt = 0
	}
	c.RegWrite(st.spillCnt, 0, uint64(cnt))
}

// emitSpill sends the first cnt spillover pairs downstream as a DATA packet
// flagged FlagSpill.
func (p *Program) emitSpill(c *dataplane.Ctx, st *treeState, cnt int) {
	buf := wire.NewBuffer(wire.DefaultHeadroom, cnt*p.geom.PairWidth())
	for i := 0; i < cnt; i++ {
		cell := c.BRegRead(st.spill, i)
		if c.Err() != nil {
			return
		}
		buf.AppendBytes(cell)
	}
	p.emitDaiet(c, st, buf, wire.TypeData, uint16(cnt), wire.FlagSpill)
	st.Stats.SpillPacketsOut++
	st.Stats.PairsSpillSent += uint64(cnt)
}

// handleEnd is the END_PACKET arm of Algorithm 1: count down the pending
// children; at zero, begin flushing aggregated state downstream.
func (p *Program) handleEnd(c *dataplane.Ctx, st *treeState) {
	st.Stats.EndPacketsIn++
	rem := c.RegRead(st.remaining, 0)
	if rem > 0 {
		rem--
	}
	c.RegWrite(st.remaining, 0, rem)
	if c.Err() != nil {
		return
	}
	if rem > 0 {
		c.Drop() // absorbed; downstream sees one END per tree, at flush end
		return
	}
	c.U[slotFlushMode] = 1
	p.flushPass(c, st)
}

// flushPass drains one packet's worth of state per pipeline pass,
// recirculating until done (the recirculation-driven flush loop the RMT
// architecture forces on programs that need unbounded iteration). Order:
// spillover leftovers first, then register contents via the index stack,
// then a terminal END downstream.
func (p *Program) flushPass(c *dataplane.Ctx, st *treeState) {
	if p.replayFull(st) {
		// Root-replay backpressure: every emission is retained until the
		// collector acknowledges it, so a full buffer pauses the flush
		// (stall, not recirculate: waiting on a round trip costs no
		// recirculation budget). ACKs drain the buffer; the stalled pass
		// then resumes exactly where it left off.
		st.Stats.FlushStalls++
		c.Stall()
		return
	}
	if cnt := int(c.RegRead(st.spillCnt, 0)); cnt > 0 {
		p.emitSpill(c, st, cnt)
		c.RegWrite(st.spillCnt, 0, 0)
		c.Recirculate()
		return
	}
	top := int(c.RegRead(st.stackTop, 0))
	if c.Err() != nil {
		return
	}
	if top == 0 {
		// Flush complete: propagate END, then reset for the next round.
		p.emitDaiet(c, st, wire.NewBuffer(wire.DefaultHeadroom, 0),
			wire.TypeEnd, 0, wire.FlagAggregated)
		st.Stats.EndPacketsOut++
		st.Stats.FlushesCompleted++
		c.RegWrite(st.remaining, 0, uint64(st.cfg.Children))
		c.U[slotFlushMode] = 0
		c.Drop()
		return
	}
	n := p.maxPairs
	if n > top {
		n = top
	}
	buf := wire.NewBuffer(wire.DefaultHeadroom, n*p.geom.PairWidth())
	for i := 0; i < n; i++ {
		idx := int(c.RegRead(st.stack, top-1-i))
		key := c.BRegRead(st.keys, idx)
		val := c.RegRead(st.vals, idx)
		c.RegWrite(st.valid, idx, 0)
		if c.Err() != nil {
			return
		}
		buf.AppendBytes(key)
		w := buf.Append(wire.ValueWidth)
		binary.BigEndian.PutUint32(w, uint32(val))
	}
	c.RegWrite(st.stackTop, 0, uint64(top-n))
	p.emitDaiet(c, st, buf, wire.TypeData, uint16(n), wire.FlagAggregated)
	st.Stats.FlushPacketsOut++
	st.Stats.PairsFlushed += uint64(n)
	c.Recirculate()
}

// emitDaiet wraps buf's pair payload in DAIET/UDP/IP/Ethernet headers
// addressed to the tree root and emits it out the tree port.
func (p *Program) emitDaiet(c *dataplane.Ctx, st *treeState, buf *wire.Buffer,
	typ wire.DaietType, numPairs uint16, flags uint16) {

	seq := c.RegRead(st.seq, 0)
	c.RegWrite(st.seq, 0, seq+1)
	hdr := wire.DaietHeader{
		Type:     typ,
		TreeID:   st.cfg.TreeID,
		Seq:      uint32(seq),
		NumPairs: numPairs,
		Flags:    flags | uint16(st.cfg.Epoch)<<8,
	}
	frame := wire.BuildDaietFrame(buf, hdr, uint32(p.sw.ID()), st.cfg.TreeID, wire.UDPPortDaiet)
	c.EmitClass(st.cfg.OutPort, st.cfg.DataClass, frame)
	if st.cfg.RootReplay > 0 {
		// Spill emissions during aggregation bypass the flush-loop
		// backpressure check, so the buffer can transiently exceed its cap
		// by in-flight spills; the flush loop stalls until ACKs bring it
		// back under.
		p.recordReplay(st, st.cfg.OutPort, frame)
	}
}
