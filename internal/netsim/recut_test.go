package netsim

import (
	"math/rand"
	"testing"
	"time"
)

// runWorldRecut is runWorld with a dynamic re-cut policy: a seeded random
// schedule (jittered intervals) and a Groups func that re-deals every node
// into the same number of domains at random. Any re-cut schedule must
// replay byte-identically to the sequential run.
func runWorldRecut(t *testing.T, seed int64, n, domains int, recutSeed uint64) string {
	t.Helper()
	nw, nodes := chatterWorld(t, seed, n)
	if err := nw.Partition(randomGroups(n, domains, seed)); err != nil {
		t.Fatal(err)
	}
	if nw.Domains() > 1 {
		rng := rand.New(rand.NewSource(int64(recutSeed) ^ 0x6a09e667))
		err := nw.SetRecutPolicy(RecutPolicy{
			Interval:   Duration(2 * time.Microsecond),
			MinSkewPct: 0, // re-cut on any measured imbalance
			Seed:       recutSeed,
			Groups: func(current [][]NodeID, measured []uint64) [][]NodeID {
				groups := make([][]NodeID, len(current))
				for _, g := range current {
					for _, id := range g {
						k := rng.Intn(len(groups))
						groups[k] = append(groups[k], id)
					}
				}
				return groups
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	inject(nw, nodes, seed)
	if err := nw.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	return fingerprint(nw, nodes)
}

// TestRecutConformanceProperty extends the partition conformance property
// with dynamic re-partitioning: random topologies and workloads, random
// initial cuts, and randomized seeded re-cut schedules all replay
// byte-identically to the sequential run.
func TestRecutConformanceProperty(t *testing.T) {
	var recuts uint64
	for trial := 0; trial < 4; trial++ {
		seed := int64(4000 + 131*trial)
		n := 9 + trial*3
		seq := runWorld(t, seed, n, 1)
		for _, domains := range []int{2, 3, 4} {
			for _, recutSeed := range []uint64{1, 42} {
				got := runWorldRecut(t, seed, n, domains, recutSeed)
				if got != seq {
					t.Fatalf("trial %d: re-cut replay diverged at %d domains (recut seed %d):\nsequential:\n%s\nre-cut:\n%s",
						trial, domains, recutSeed, seq, got)
				}
			}
		}
		// Count applied re-cuts on one more run so the property is known
		// to exercise actual migrations, not an idle policy.
		nw, nodes := chatterWorld(t, seed, n)
		if err := nw.Partition(randomGroups(n, 3, seed)); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		if err := nw.SetRecutPolicy(RecutPolicy{
			Interval: Duration(2 * time.Microsecond),
			Seed:     9,
			Groups: func(current [][]NodeID, measured []uint64) [][]NodeID {
				groups := make([][]NodeID, len(current))
				for _, g := range current {
					for _, id := range g {
						k := rng.Intn(len(groups))
						groups[k] = append(groups[k], id)
					}
				}
				return groups
			},
		}); err != nil {
			t.Fatal(err)
		}
		inject(nw, nodes, seed)
		if err := nw.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		recuts += nw.Recuts()
	}
	if recuts == 0 {
		t.Fatal("no dynamic re-cut was ever applied; the property tested nothing")
	}
}

// TestRepartitionAtControlPoints drives the public quiescent-point API:
// alternating RunUntil windows with explicit Repartition calls must
// replay byte-identically to a sequential run over the same schedule.
func TestRepartitionAtControlPoints(t *testing.T) {
	const seed, n = 5150, 12
	run := func(recut bool) string {
		nw, nodes := chatterWorld(t, seed, n)
		if err := nw.Partition(randomGroups(n, 3, seed)); err != nil {
			t.Fatal(err)
		}
		inject(nw, nodes, seed)
		for step := 1; step <= 8; step++ {
			if err := nw.RunUntil(Time(step) * Duration(3*time.Microsecond)); err != nil {
				t.Fatal(err)
			}
			if recut {
				if err := nw.Repartition(randomGroups(n, 3, seed+int64(step))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := nw.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		return fingerprint(nw, nodes)
	}
	seqNW, seqNodes := chatterWorld(t, seed, n)
	inject(seqNW, seqNodes, seed)
	for step := 1; step <= 8; step++ {
		if err := seqNW.RunUntil(Time(step) * Duration(3*time.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seqNW.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	seq := fingerprint(seqNW, seqNodes)

	if got := run(false); got != seq {
		t.Fatalf("static partitioned control-point run diverged:\n%s\nvs\n%s", got, seq)
	}
	if got := run(true); got != seq {
		t.Fatalf("re-cut control-point run diverged:\n%s\nvs\n%s", got, seq)
	}
}

// TestRepartitionValidation covers the re-cut configuration contract.
func TestRepartitionValidation(t *testing.T) {
	mk := func() *Network {
		nw := New(1)
		for id := NodeID(1); id <= 4; id++ {
			nw.AddNode(id, &chatter{})
		}
		nw.Connect(1, 2, LinkConfig{})
		nw.Connect(3, 4, LinkConfig{})
		nw.Connect(2, 3, LinkConfig{})
		return nw
	}

	if err := mk().Repartition([][]NodeID{{1, 2, 3, 4}}); err == nil {
		t.Fatal("Repartition before Partition accepted")
	}
	nw := mk()
	if err := nw.Partition([][]NodeID{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Repartition([][]NodeID{{1, 2, 3, 4}}); err == nil {
		t.Fatal("group-count change accepted")
	}
	if err := nw.Repartition([][]NodeID{{1, 2, 3}, {4, 4}}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if err := nw.Repartition([][]NodeID{{1, 2, 3}, {9}}); err == nil {
		t.Fatal("unknown node accepted")
	}
	if err := nw.Repartition([][]NodeID{{1, 2}, {3}}); err == nil {
		t.Fatal("partial cover accepted")
	}
	// Identical grouping: a deterministic no-op.
	if err := nw.Repartition([][]NodeID{{1, 2}, {3, 4}}); err != nil {
		t.Fatalf("no-op re-cut rejected: %v", err)
	}
	// A full shuffle, including an empty group, is legal.
	if err := nw.Repartition([][]NodeID{{3, 1, 4, 2}, {}}); err != nil {
		t.Fatalf("legal re-cut rejected: %v", err)
	}
	if err := nw.Repartition([][]NodeID{{1, 2}, {3, 4}}); err != nil {
		t.Fatalf("re-cut back rejected: %v", err)
	}

	// Policy validation.
	groups := func([][]NodeID, []uint64) [][]NodeID { return nil }
	if err := mk().SetRecutPolicy(RecutPolicy{Interval: 1, Groups: groups}); err == nil {
		t.Fatal("policy on unpartitioned network accepted")
	}
	if err := nw.SetRecutPolicy(RecutPolicy{Groups: groups}); err == nil {
		t.Fatal("policy without Interval accepted")
	}
	if err := nw.SetRecutPolicy(RecutPolicy{Interval: 1}); err == nil {
		t.Fatal("policy without Groups accepted")
	}
	if err := nw.SetRecutPolicy(RecutPolicy{Interval: 1, Groups: groups}); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
	if nw.Recuts() != 0 {
		t.Fatalf("Recuts = %d before any run", nw.Recuts())
	}
}

// TestArenaRecycling pins the zero-steady-state-allocation design: a long
// sequential run recycles frame slots through the free list, so capacity
// tracks peak in-flight frames, not total frames, and nothing stays live
// after the run drains.
func TestArenaRecycling(t *testing.T) {
	nw := New(3)
	a, b := &chatter{}, &chatter{}
	nw.AddNode(1, a)
	nw.AddNode(2, b)
	nw.Connect(1, 2, LinkConfig{QueueBytes: 1 << 20})
	for i := 0; i < 200; i++ {
		frame := make([]byte, 64)
		frame[0] = 5 // TTL
		frame[1] = byte(i)
		nw.Send(1, 0, frame)
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	st := nw.ArenaStats()
	frames := nw.TotalStats().TxFrames
	if st.FrameLive != 0 {
		t.Fatalf("%d frame slots live after drain", st.FrameLive)
	}
	if st.FramePeak == 0 || st.Bytes == 0 {
		t.Fatalf("arena stats not tracked: %+v", st)
	}
	if uint64(st.FrameCap) >= frames {
		t.Fatalf("frame slots are not recycled: cap %d for %d frames", st.FrameCap, frames)
	}
}
