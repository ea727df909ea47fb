package main

// counts is one trial's ledger of exact, simulated counts, read from each
// layer's exported statistics at the same boundaries the spans sit on. Every
// field is deterministic in (workload, seed): two trials of one run, or two
// commits whose simulations agree, have identical ledgers.
type counts struct {
	pairs        uint64 // key-value pairs emitted by workers
	reducerPairs uint64 // pairs arriving at reducers / the collector

	events          uint64 // netsim: events executed
	framesTx        uint64 // netsim: frames accepted by a transmitter
	dropsPool       uint64 // netsim: shared-pool rejections
	dropsQueue      uint64 // netsim: private-queue tail drops
	egressAttempted uint64 // netsim: frames offered to a switch egress port
	egressDropped   uint64 // netsim: of those, dropped
	poolHighPPM     uint64 // netsim: worst pool's peak occupancy, parts per million
	arenaPeakBytes  uint64
	simCompletionNs uint64

	pairsIn       uint64 // core: pairs entering a switch tree, summed over switches
	pairsCombined uint64
	pairsSpilled  uint64
	flushStalls   uint64
	switchTx      uint64 // core: packets switches emitted, retransmissions included
	switchRetx    uint64
	hostTx        uint64 // frames worker hosts sent, retransmissions included
	hostRetx      uint64
	collFramesRx  uint64
	collPairsRx   uint64

	reducerPayloadBytes uint64
	reducerPackets      uint64
	transportFramesRx   uint64

	// series folds workload-specific exact sequences (per-step update counts,
	// per-superstep message counts) into the digest.
	series uint64

	// reduceNs is Σ ReducerReport.ReduceTime: host wall-clock measured by the
	// repo, so not part of the digest.
	reduceNs int64
}

// fold mixes one more exact value into the series hash.
func (c *counts) fold(v uint64) { c.series = mix(c.series, v) }

// digest fingerprints the simulation: every exact count, in a fixed order.
func (c *counts) digest() uint64 {
	h := uint64(0)
	for _, v := range [...]uint64{
		c.pairs, c.reducerPairs,
		c.events, c.framesTx, c.dropsPool, c.dropsQueue, c.egressAttempted, c.egressDropped,
		c.poolHighPPM, c.arenaPeakBytes, c.simCompletionNs,
		c.pairsIn, c.pairsCombined, c.pairsSpilled, c.flushStalls,
		c.switchTx, c.switchRetx, c.hostTx, c.hostRetx, c.collFramesRx, c.collPairsRx,
		c.reducerPayloadBytes, c.reducerPackets, c.transportFramesRx,
		c.series,
	} {
		h = mix(h, v)
	}
	return h
}

// mix folds one 64-bit word into h with the SplitMix64 finalizer; the
// benchmark keeps its own so the digest does not move with the repo's
// hashing package.
func mix(h, v uint64) uint64 {
	x := (h ^ v) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
