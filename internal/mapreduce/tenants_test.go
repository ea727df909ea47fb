package mapreduce

import (
	"fmt"
	"testing"

	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/workload"
)

// tenantCorpus generates one tenant's corpus with its own seed so the two
// tenants' keys and multiplicities differ.
func tenantCorpus(t *testing.T, seed uint64, mappers, reducers, vocabPer, tableSize int) ([][]string, *workload.Corpus) {
	t.Helper()
	c, err := workload.Generate(workload.CorpusSpec{
		Seed:             seed,
		Reducers:         reducers,
		VocabPerReducer:  vocabPer,
		MeanMultiplicity: 5,
		TableSize:        tableSize,
		CollisionFree:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c.Splits(mappers), c
}

// tenantPair builds a two-tenant RunJobs input over a cluster's host
// placement: tenant 0 gets the first half of the mappers and reducers,
// tenant 1 the second half, each under its own pair of pool classes.
func tenantPair(t *testing.T, cl *Cluster, tableSize int) ([]TenantJob, []*workload.Corpus) {
	t.Helper()
	m, r := len(cl.Mappers)/2, len(cl.Reducers)/2
	splits0, corpus0 := tenantCorpus(t, 21, m, r, 120, tableSize)
	splits1, corpus1 := tenantCorpus(t, 22, len(cl.Mappers)-m, len(cl.Reducers)-r, 160, tableSize)
	return []TenantJob{
		{Job: WordCount, Splits: splits0, Mappers: cl.Mappers[:m], Reducers: cl.Reducers[:r],
			DataClass: 0, AckClass: 1},
		{Job: WordCount, Splits: splits1, Mappers: cl.Mappers[m:], Reducers: cl.Reducers[r:],
			DataClass: 2, AckClass: 3},
	}, []*workload.Corpus{corpus0, corpus1}
}

// multiTenantPool is a four-class shared-memory pool: one {data, ack} class
// pair per tenant, each data class with a hard-carved floor.
func multiTenantPool() *netsim.PoolConfig {
	return &netsim.PoolConfig{
		TotalBytes: 1 << 20,
		Classes: []netsim.ClassConfig{
			{ReserveBytes: 4096, Alpha: 2}, // tenant 0 data
			{ReserveBytes: 1024, Alpha: 2}, // tenant 0 acks
			{ReserveBytes: 4096, Alpha: 2}, // tenant 1 data
			{ReserveBytes: 1024, Alpha: 2}, // tenant 1 acks
		},
	}
}

// TestRunJobsTenantsShareFabric admits two word-count tenants into one
// pooled fabric concurrently and checks each tenant's outputs cover exactly
// its own corpus — per-tree register arrays and per-class pool slices keep
// the tenants from corrupting each other even though every switch and link
// is shared.
func TestRunJobsTenantsShareFabric(t *testing.T) {
	const tableSize = 512
	cl, err := NewCluster(ClusterConfig{
		NumMappers: 6, NumReducers: 4, TableSize: tableSize, Seed: 3,
		SwitchPool: multiTenantPool(),
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, corpora := tenantPair(t, cl, tableSize)
	results, err := cl.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results for 2 tenants", len(results))
	}
	for i, res := range results {
		total := 0
		for _, r := range res.PerReducer {
			total += r.UniqueKeys
		}
		if total != corpora[i].UniqueWords {
			t.Fatalf("tenant %d outputs cover %d keys, corpus has %d",
				i, total, corpora[i].UniqueWords)
		}
		if res.TotalPairsIn != uint64(corpora[i].TotalWords) {
			t.Fatalf("tenant %d pairs in %d, words %d", i, res.TotalPairsIn, corpora[i].TotalWords)
		}
		if res.Completion == 0 {
			t.Fatalf("tenant %d has no completion stamp", i)
		}
	}
}

// TestRunJobsValidation pins RunJobs's admission checks: empty tenant
// lists, split/mapper mismatches, unknown hosts, and — the tree-ID
// collision hazard — reducer sets that overlap across tenants.
func TestRunJobsValidation(t *testing.T) {
	cl := newTestCluster(t, 4, 2, 512)
	splits, _ := tenantCorpus(t, 21, 2, 1, 50, 512)

	if _, err := cl.RunJobs(nil); err == nil {
		t.Fatal("empty tenant list accepted")
	}
	if _, err := cl.RunJobs([]TenantJob{
		{Job: WordCount, Splits: splits, Mappers: cl.Mappers[:1], Reducers: cl.Reducers[:1]},
	}); err == nil {
		t.Fatal("split/mapper count mismatch accepted")
	}
	if _, err := cl.RunJobs([]TenantJob{
		{Job: WordCount, Splits: splits, Mappers: cl.Mappers[:2], Reducers: []netsim.NodeID{9999}},
	}); err == nil {
		t.Fatal("unknown reducer host accepted")
	}
	if _, err := cl.RunJobs([]TenantJob{
		{Job: WordCount, Splits: splits, Mappers: cl.Mappers[:2], Reducers: cl.Reducers[:1]},
		{Job: WordCount, Splits: splits, Mappers: cl.Mappers[2:], Reducers: cl.Reducers[:1]},
	}); err == nil {
		t.Fatal("overlapping reducer sets accepted — tree IDs would collide")
	}
}

// TestRunJobsTenantDeterministic: both tenants' full results — outputs,
// packet counts, completion stamps — match their recorded digest.
func TestRunJobsTenantDeterministic(t *testing.T) {
	const tableSize = 512
	cl, err := NewCluster(ClusterConfig{
		NumMappers: 6, NumReducers: 4, TableSize: tableSize, Seed: 3,
		SwitchPool: multiTenantPool(),
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := tenantPair(t, cl, tableSize)
	results, err := cl.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, res := range results {
		// ReduceTime is wall-clock (host-side sort), not virtual time.
		for i := range res.PerReducer {
			res.PerReducer[i].ReduceTime = 0
		}
		out += fmt.Sprintf("%+v\n", res)
	}
	checkDigest(t, "tenant runs", out, "15787 bytes 0x4835807b87d49c46")
}
