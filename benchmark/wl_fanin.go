package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/hashing"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/transport"
	"github.com/daiet/daiet/internal/wire"
)

// The fan-in workloads assemble the repo's bigincast/megaincast shape from
// exported calls: a leaf-spine fabric of shared-memory switches, one
// hop-by-hop reliable aggregation tree, every sender queueing its whole
// stream at t=0. Two sizes of the one assembly stress opposite ends of it.

// faninSizes parameterizes one fan-in trial.
type faninSizes struct {
	racks, spines  int // sender racks (the reducer sits alone in one more) and spine width
	senders        int
	pairsPerSender int // mean stream length; each sender draws ±20%
	vocab          int // shared key space
	table          int // per-tree register cells per switch
	poolBytes      int // leaf shared memory; spines get twice as much
}

// faninWide is the megaincast shape: 1024 senders × ~24 pairs. A trial is
// ~31k events, so fabric build and routing install dominate it.
var faninWide = faninSizes{
	racks: 16, spines: 2, senders: 1024, pairsPerSender: 24,
	vocab: 8192, table: 2048, poolBytes: 512 << 10,
}

// faninDeep keeps the fabric small and the streams long: ~10⁶ events per
// trial through buffer-pool admission, go-back-N timers and replay buffers
// under loss, so the event loop dominates.
var faninDeep = faninSizes{
	racks: 4, spines: 1, senders: 256, pairsPerSender: 8000,
	vocab: 4096, table: 4096, poolBytes: 3 << 20,
}

const (
	faninAlpha       = 2
	faninPoolReserve = 2 << 10
	faninEdgeQueue   = 64 << 20 // loss-free host uplinks: switch memory is under study
	faninReplay      = 64
	faninRTO         = 500 * time.Microsecond
)

// streamPair is one drawn pair: an index into the shared key table.
type streamPair struct {
	key   int32
	value uint32
}

type faninDriver struct {
	seed    uint64
	sz      faninSizes
	keys    [][]byte          // vocab key bytes, shared by every stream
	streams [][]streamPair    // per sender, in plan.Hosts order
	want    map[string]uint32 // built on first verify, outside set-up time

	got map[string]uint32 // the last trial's collector aggregate
}

func setupFaninWide(seed uint64, rec *recorder) (driver, error) {
	return newFaninDriver(seed, faninWide, rec), nil
}

func setupFaninDeep(seed uint64, rec *recorder) (driver, error) {
	return newFaninDriver(seed, faninDeep, rec), nil
}

// newFaninDriver draws every sender's stream exactly as
// experiments.senderWorkload does, so fanin-wide reproduces megaincast's
// simulated columns.
func newFaninDriver(seed uint64, sz faninSizes, rec *recorder) *faninDriver {
	sp := rec.begin("benchmark.draw_streams")
	defer rec.end(sp)
	d := &faninDriver{seed: seed, sz: sz}
	d.keys = make([][]byte, sz.vocab)
	for i := range d.keys {
		d.keys[i] = []byte(fmt.Sprintf("key-%05d", i))
	}
	_, workers, _ := d.plan()
	d.streams = make([][]streamPair, len(workers))
	for i, w := range workers {
		rng := rand.New(rand.NewSource(int64(hashing.Mix64(seed ^ uint64(w)<<20))))
		n := sz.pairsPerSender * (80 + rng.Intn(41)) / 100
		stream := make([]streamPair, n)
		for k := range stream {
			key := rng.Intn(sz.vocab)
			val := uint32(rng.Intn(1000))
			stream[k] = streamPair{key: int32(key), value: val}
		}
		d.streams[i] = stream
	}
	return d
}

// plan lays out the fabric: sz.racks sender racks plus one reducer rack,
// a Dynamic-Threshold pool on every switch.
func (d *faninDriver) plan() (plan *topology.Plan, workers []netsim.NodeID, reducer netsim.NodeID) {
	sz := d.sz
	perRack := (sz.senders + sz.racks - 1) / sz.racks
	plan = topology.LeafSpine(sz.racks+1, sz.spines, perRack,
		netsim.LinkConfig{QueueBytes: faninEdgeQueue})
	workers = plan.Hosts[:sz.senders]
	reducer = plan.Hosts[sz.racks*perRack]

	ports := make(map[netsim.NodeID]int, len(plan.Switches))
	for _, l := range plan.Links {
		ports[l.A]++
		ports[l.B]++
	}
	for i, sw := range plan.Switches {
		total := sz.poolBytes
		if i >= sz.racks+1 {
			total *= 2 // spine tier
		}
		// Reserves are hard-carved; cap the carve at a quarter of the memory
		// so sharing stays the dominant regime on high-radix switches.
		reserve := faninPoolReserve
		if c := total / (4 * ports[sw]); reserve > c {
			reserve = c
		}
		plan.SetPool(sw, netsim.PoolConfig{TotalBytes: total, ReserveBytes: reserve, Alpha: faninAlpha})
	}
	return plan, workers, reducer
}

// trial builds the fabric, runs the round and harvests the ledger. A trial
// that returns an error may leave spans open; the harness discards them.
func (d *faninDriver) trial(rec *recorder, c *counts) error {
	sp := rec.begin("topology.plan")
	plan, workers, reducer := d.plan()
	rec.end(sp)

	nw := netsim.New(d.seed)
	programs := make(map[netsim.NodeID]*core.Program, len(plan.Switches))
	hosts := make(map[netsim.NodeID]*transport.Host, len(plan.Hosts))
	var buildErr error
	sp = rec.begin("topology.realize")
	fab := plan.Realize(nw,
		func(id netsim.NodeID) netsim.Node {
			s := rec.begin("core.new_program")
			prog, err := core.NewProgram(core.ProgramConfig{})
			rec.end(s)
			if err != nil {
				buildErr = err
				return transport.NewHost() // placeholder; buildErr aborts below
			}
			programs[id] = prog
			return prog.Switch()
		},
		func(id netsim.NodeID) netsim.Node {
			s := rec.begin("transport.new_host")
			h := transport.NewHost()
			rec.end(s)
			hosts[id] = h
			return h
		})
	rec.end(sp)
	if buildErr != nil {
		return buildErr
	}

	ctl := controller.New(fab, programs)
	sp = rec.begin("controller.install_routing")
	err := ctl.InstallRouting()
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("controller.plan_tree")
	tplan, err := ctl.PlanTree(reducer, workers)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("controller.install_tree")
	err = ctl.InstallTree(tplan, controller.TreeOptions{
		Agg:        core.AggSum,
		TableSize:  d.sz.table,
		Reliable:   true,
		RootReplay: faninReplay,
		RootRTO:    faninRTO,
		HopReplay:  true,
	})
	rec.end(sp)
	if err != nil {
		return err
	}

	sp = rec.begin("core.sender_setup")
	sum, err := core.FuncByID(core.AggSum)
	if err != nil {
		return err
	}
	col := core.NewCollector(uint32(reducer), sum, wire.DefaultGeometry, tplan.RootChildren())
	col.Attach(hosts[reducer])
	col.EnableRootAck()
	senders := make([]*core.ReliableSender, len(workers))
	for i, w := range workers {
		mux := core.NewAckMux(hosts[w])
		s, err := core.NewReliableSender(hosts[w], tplan.TreeID, reducer,
			wire.DefaultGeometry, wire.DefaultMaxPairs, core.ReliableConfig{
				Window:     32,
				RTO:        faninRTO,
				MaxRetries: 10_000, // completion, not give-up, is under study
			})
		if err != nil {
			return err
		}
		mux.Register(s)
		senders[i] = s
	}
	rec.end(sp)

	sp = rec.begin("core.sender_send")
	for i, s := range senders {
		for _, p := range d.streams[i] {
			if err := s.Send(d.keys[p.key], p.value); err != nil {
				return err
			}
		}
		s.End()
	}
	rec.end(sp)

	sp = rec.begin("netsim.run")
	err = nw.Run(500_000_000)
	rec.end(sp)
	if err != nil {
		return err
	}

	sp = rec.begin("netsim.stats")
	defer rec.end(sp)
	for i, s := range senders {
		if !s.Done() {
			return fmt.Errorf("sender %d incomplete: %v", i, s.Err())
		}
		c.pairs += s.Stats.PairsSent
		c.hostTx += s.Stats.Transmissions
		c.hostRetx += s.Stats.Retransmissions
	}
	if !col.Complete() {
		return fmt.Errorf("collector incomplete (%+v)", col.Stats)
	}
	for _, sw := range tplan.SwitchNodes {
		st, ok := programs[sw].TreeStats(tplan.TreeID)
		if !ok {
			return fmt.Errorf("switch %d lost tree %d", sw, tplan.TreeID)
		}
		harvestTree(st, c)
	}
	harvestFabric(nw, plan, c)
	c.collFramesRx = col.Stats.Packets
	c.collPairsRx = col.Stats.PairsReceived
	c.reducerPairs = col.Stats.PairsReceived
	c.reducerPayloadBytes = col.Stats.PayloadBytes
	c.reducerPackets = hosts[reducer].Stats.FramesRx
	for _, h := range hosts {
		c.transportFramesRx += h.Stats.FramesRx
	}
	d.got = col.Result()
	return nil
}

// verify compares the last trial's collector aggregate with the per-key sums
// of the drawn streams: a lost or duplicated pair anywhere in the tree shows
// as a wrong sum.
func (d *faninDriver) verify() error {
	if d.want == nil {
		d.want = make(map[string]uint32)
		for _, stream := range d.streams {
			for _, p := range stream {
				d.want[string(d.keys[p.key])] += p.value
			}
		}
	}
	return compareAggregate(d.got, d.want)
}
