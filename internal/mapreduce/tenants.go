package mapreduce

import (
	"fmt"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/transport"
	"github.com/daiet/daiet/internal/wire"
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

	// ---- Map phase, per tenant (host-local, no network) ----
	aggs := make([]core.AggFunc, len(tenants))
	spills := make([][][]*spill, len(tenants))
	totalPairs := make([]uint64, len(tenants))
	for t := range tenants {
		agg, err := core.FuncByID(tenants[t].Job.Agg)
		if err != nil {
			return nil, err
		}
		aggs[t] = agg
		sp, err := runMapPhase(tenants[t].Job, tenants[t].Splits,
			len(tenants[t].Reducers), c.Cfg.Geometry)
		if err != nil {
			return nil, err
		}
		spills[t] = sp
		for m := range sp {
			for r := range sp[m] {
				totalPairs[t] += uint64(sp[m][r].n)
			}
		}
	}

	// ---- Tree install + collectors, all tenants up front ----
	type tenantRun struct {
		plans      []*controller.TreePlan
		collectors []*core.Collector
		baseRx     []transport.HostStats
		remaining  int
		completion netsim.Time
	}
	runs := make([]*tenantRun, len(tenants))
	for t := range tenants {
		tj := &tenants[t]
		tr := &tenantRun{
			plans:      make([]*controller.TreePlan, len(tj.Reducers)),
			collectors: make([]*core.Collector, len(tj.Reducers)),
			baseRx:     make([]transport.HostStats, len(tj.Reducers)),
			remaining:  len(tj.Reducers),
		}
		runs[t] = tr
		for i, r := range tj.Reducers {
			plan, err := c.Ctl.PlanTree(r, tj.Mappers)
			if err != nil {
				return nil, err
			}
			tr.plans[i] = plan
			if err := c.Ctl.InstallTree(plan, controller.TreeOptions{
				Agg:       tj.Job.Agg,
				TableSize: c.Cfg.TableSize,
				DataClass: tj.DataClass,
				AckClass:  tj.AckClass,
				Tenant:    t,
			}); err != nil {
				return nil, err
			}
			col := core.NewCollector(uint32(r), aggs[t], c.Cfg.Geometry, plan.RootChildren())
			col.KeepRaw = true
			col.Attach(c.Hosts[r])
			col.OnComplete = func() {
				tr.remaining--
				if tr.remaining == 0 {
					tr.completion = c.Net.Now()
				}
			}
			tr.collectors[i] = col
			tr.baseRx[i] = c.Hosts[r].Stats
		}
	}

	// ---- All tenants' streams queued at t=0, one shared run ----
	for t := range tenants {
		tj := &tenants[t]
		for m, mapper := range tj.Mappers {
			for ri, reducer := range tj.Reducers {
				s, err := core.NewSender(c.Hosts[mapper], uint32(reducer), reducer,
					c.Cfg.Geometry, c.Cfg.MaxPairsPerPacket)
				if err != nil {
					return nil, err
				}
				s.SetMaxBurst(32)
				sp := spills[t][m][ri]
				for i := 0; i < sp.n; i++ {
					k, v := sp.record(i)
					if err := s.Send(wire.TrimKey(k), v); err != nil {
						return nil, err
					}
				}
				s.End()
			}
		}
	}
	if err := c.Net.Run(0); err != nil {
		return nil, err
	}

	// ---- Per-tenant collection, verification, teardown ----
	results := make([]TenantResult, len(tenants))
	for t := range tenants {
		tj, tr := &tenants[t], runs[t]
		reports := make([]ReducerReport, len(tj.Reducers))
		for i, col := range tr.collectors {
			if !col.Complete() {
				return nil, fmt.Errorf("mapreduce: tenant %d reducer %d shuffle incomplete (%+v)",
					t, i, col.Stats)
			}
			out, dur := reduceSortAll(col.RawPairs, aggs[t])
			st := c.Hosts[tj.Reducers[i]].Stats
			reports[i] = ReducerReport{
				Reducer:         tj.Reducers[i],
				PacketsReceived: st.FramesRx - tr.baseRx[i].FramesRx,
				PayloadBytes:    col.Stats.PayloadBytes,
				PairsReceived:   col.Stats.PairsReceived,
				ReduceTime:      dur,
				UniqueKeys:      len(out),
				Output:          out,
			}
			if err := verifyAgainstReference(spills[t], i, aggs[t], out); err != nil {
				return nil, fmt.Errorf("mapreduce: tenant %d: %w", t, err)
			}
		}
		var treeStats []core.TreeStats
		for _, plan := range tr.plans {
			for _, sw := range plan.SwitchNodes {
				if st, ok := c.Programs[sw].TreeStats(plan.TreeID); ok {
					treeStats = append(treeStats, st)
				}
			}
			c.Ctl.UninstallTree(plan)
		}
		results[t] = TenantResult{
			Result: Result{
				Mode:            ModeDAIET,
				Job:             tj.Job.Name,
				PerReducer:      reports,
				TotalPairsIn:    totalPairs[t],
				Elapsed:         c.Net.Now(),
				SwitchTreeStats: treeStats,
			},
			Tenant:     t,
			Completion: tr.completion,
		}
	}
	return results, nil
}
