package main

import (
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
)

// harvestFabric adds one network's engine and port statistics to the
// ledger. Across the jobs of one trial events, frames and drops add up; the
// arena peak is the largest and completion times add (the jobs run one
// after the other).
func harvestFabric(nw *netsim.Network, plan *topology.Plan, c *counts) {
	for _, sw := range plan.Switches {
		for p := 0; p < nw.NumPorts(sw); p++ {
			st := nw.PortStats(sw, p)
			drops := st.DropsPool + st.DropsFull + st.DropsLoss
			c.egressAttempted += st.TxFrames + drops
			c.egressDropped += drops
		}
		if ps, ok := nw.PoolStats(sw); ok {
			if ppm := uint64(ps.HighWater) * 1_000_000 / uint64(ps.TotalBytes); ppm > c.poolHighPPM {
				c.poolHighPPM = ppm
			}
		}
	}
	total := nw.TotalStats()
	c.framesTx += total.TxFrames
	c.dropsPool += total.DropsPool
	c.dropsQueue += total.DropsFull
	c.events += nw.Processed()
	if b := uint64(nw.ArenaStats().Bytes); b > c.arenaPeakBytes {
		c.arenaPeakBytes = b
	}
	c.simCompletionNs += uint64(nw.Now())
}

// harvestTree adds one switch's counters for one aggregation tree.
func harvestTree(st core.TreeStats, c *counts) {
	c.pairsIn += st.PairsIn
	c.pairsCombined += st.PairsCombined
	c.pairsSpilled += st.PairsSpilled
	c.flushStalls += st.FlushStalls
	c.switchRetx += st.RootRetransmissions
	c.switchTx += st.SpillPacketsOut + st.FlushPacketsOut + st.EndPacketsOut + st.RootRetransmissions
}
