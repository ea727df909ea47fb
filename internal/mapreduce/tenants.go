package mapreduce

import (
	"fmt"

	"github.com/daiet/daiet/internal/netsim"
)

// TenantJob is one tenant's job in a multi-tenant run: its own mapper and
// reducer placement plus the shared-buffer traffic classes its aggregation
// trees run under. Tenants share one fabric; each tenant's trees are keyed
// by its reducers (TreeID = reducer node ID), so reducer sets must be
// disjoint across tenants — that is also what gives every tenant its own
// aggregation-table partition on shared switches, since per-tree register
// arrays never alias.
type TenantJob struct {
	Job      Job
	Splits   [][]string // one per mapper
	Mappers  []netsim.NodeID
	Reducers []netsim.NodeID

	// DataClass/AckClass select the pooled-switch traffic class the
	// tenant's tree emissions are admitted under (flushes vs ACKs); see
	// netsim.PoolConfig.Classes. With a multi-class SwitchPool, giving
	// each tenant its own class confines one tenant's incast to its own
	// carved slice of switch memory.
	DataClass int
	AckClass  int
}

// TenantResult is one tenant's outcome of a RunJobs call.
type TenantResult struct {
	Result
	Tenant int
	// Completion is the virtual time at which the tenant's last reducer
	// received its final END — the tenant's shuffle completion stamp,
	// comparable across tenants sharing the run.
	Completion netsim.Time
}

// RunJobs admits every tenant's job into the fabric concurrently: all
// trees installed up front (tagged with each tenant's traffic classes),
// all mappers' streams queued at t=0, one event-loop run to completion.
// Per-tenant outputs are verified against a host-side reference exactly as
// RunJob does. Like RunJob it assumes a fresh cluster for clean counters.
func (c *Cluster) RunJobs(tenants []TenantJob) ([]TenantResult, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("mapreduce: no tenants")
	}
	seenReducer := make(map[netsim.NodeID]int)
	for t := range tenants {
		tj := &tenants[t]
		if len(tj.Mappers) == 0 || len(tj.Reducers) == 0 {
			return nil, fmt.Errorf("mapreduce: tenant %d has %d mappers, %d reducers",
				t, len(tj.Mappers), len(tj.Reducers))
		}
		if len(tj.Splits) != len(tj.Mappers) {
			return nil, fmt.Errorf("mapreduce: tenant %d has %d splits for %d mappers",
				t, len(tj.Splits), len(tj.Mappers))
		}
		for _, h := range append(append([]netsim.NodeID(nil), tj.Mappers...), tj.Reducers...) {
			if _, ok := c.Hosts[h]; !ok {
				return nil, fmt.Errorf("mapreduce: tenant %d references non-host node %d", t, h)
			}
		}
		for _, r := range tj.Reducers {
			if prev, dup := seenReducer[r]; dup {
				return nil, fmt.Errorf("mapreduce: reducer %d shared by tenants %d and %d (tree IDs collide)",
					r, prev, t)
			}
			seenReducer[r] = t
		}
	}

	return c.shuffle(tenants, true)
}
