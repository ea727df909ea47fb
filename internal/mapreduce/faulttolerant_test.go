package mapreduce

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"github.com/daiet/daiet/internal/faults"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
)

// ftPlan is the shared fault-tolerance fixture: 2 leaves × 2 spines so an
// aggregation tree crossing the spine layer has a failover path.
func ftPlan() *topology.Plan {
	return topology.LeafSpine(2, 2, 6, netsim.LinkConfig{QueueBytes: 64 << 20})
}

func ftCluster(t *testing.T) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		NumMappers:  8,
		NumReducers: 2,
		Plan:        ftPlan(),
		TableSize:   512,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// renderOutputs flattens per-reducer outputs for byte-exact comparison.
func renderOutputs(rep *FTReport) string {
	s := ""
	for i, r := range rep.PerReducer {
		s += fmt.Sprintf("reducer %d (%d keys): %v\n", i, r.UniqueKeys, r.Output)
	}
	return s
}

// checkDigest compares a rendered run's length and FNV-64a with the
// digest recorded for it, so a change to any counter, output pair or
// virtual time fails the test.
func checkDigest(t *testing.T, name, got, want string) {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(got))
	if d := fmt.Sprintf("%d bytes %#016x", len(got), h.Sum64()); d != want {
		t.Fatalf("%s: digest %s, recorded %s\nrendered:\n%s", name, d, want, got)
	}
}

// TestRunJobFTFaultFree: with an empty schedule the FT driver is just a
// one-round DAIET shuffle; its outputs must match the plain RunJob path.
func TestRunJobFTFaultFree(t *testing.T) {
	splits, _ := miniCorpus(t, 8, 2, 150, 5, 512)

	ref, err := ftCluster(t).RunJob(WordCount, splits, ModeDAIET)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ftCluster(t).RunJobFT(WordCount, splits, nil, FTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RoundsStarted != 2 || rep.RoundsAborted != 0 || rep.Failovers != 0 {
		t.Fatalf("fault-free run did recovery work: %+v", rep)
	}
	for i := range ref.PerReducer {
		want := fmt.Sprintf("%v", ref.PerReducer[i].Output)
		got := fmt.Sprintf("%v", rep.PerReducer[i].Output)
		if want != got {
			t.Fatalf("reducer %d: FT output diverged from RunJob:\nwant %s\ngot  %s", i, want, got)
		}
	}
}

// treeSpine finds a spine switch participating in reducer 0's aggregation
// tree (deterministic: planning is a pure function of the fabric).
func treeSpine(t *testing.T) netsim.NodeID {
	t.Helper()
	cl := ftCluster(t)
	plan, err := cl.Ctl.PlanTree(cl.Reducers[0], cl.Mappers)
	if err != nil {
		t.Fatal(err)
	}
	spineBase := topology.SwitchBase + 2 // leaves allocate first in LeafSpine
	for _, sw := range plan.SwitchNodes {
		if sw >= spineBase {
			return sw
		}
	}
	t.Fatal("no spine in reducer 0's tree")
	return 0
}

// TestRunJobFTSwitchCrashFailover is the acceptance criterion: a mid-job
// crash of a spine inside an aggregation tree (losing whatever partial
// aggregates it held) must trigger controller-driven failover onto the
// surviving spine, and the final result must be byte-identical to the
// fault-free run.
func TestRunJobFTSwitchCrashFailover(t *testing.T) {
	splits, _ := miniCorpus(t, 8, 2, 150, 5, 512)

	ref, err := ftCluster(t).RunJobFT(WordCount, splits, nil, FTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	spine := treeSpine(t)
	crashAt := ref.Completion / 2
	if crashAt < 1 {
		t.Fatalf("degenerate reference completion %v", ref.Completion)
	}
	sched := faults.Schedule{
		{At: crashAt, Kind: faults.SwitchCrash, Node: spine},
		{At: crashAt + 4*ref.Completion, Kind: faults.SwitchRestart, Node: spine},
	}
	cfg := FTConfig{DeadTimeout: time.Duration(ref.Completion / 6)}

	rep, err := ftCluster(t).RunJobFT(WordCount, splits, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failovers < 1 {
		t.Fatalf("spine crash triggered no failover: %+v", rep)
	}
	if rep.RecoveredPairs == 0 {
		t.Fatalf("failover re-drove no pairs: %+v", rep)
	}
	if got, want := renderOutputs(rep), renderOutputs(ref); got != want {
		t.Fatalf("faulted run output != fault-free output:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if rep.Completion <= ref.Completion {
		t.Fatalf("faulted completion %v not after fault-free %v", rep.Completion, ref.Completion)
	}
}

// TestRunJobFTLinkFlapOrphanedMapper: downing a mapper's only uplink
// mid-job orphans it; the tree must complete the reachable subset, then
// run a supplementary round once the link returns — still exactly-once.
func TestRunJobFTLinkFlapOrphanedMapper(t *testing.T) {
	splits, _ := miniCorpus(t, 8, 2, 150, 5, 512)

	ref, err := ftCluster(t).RunJobFT(WordCount, splits, nil, FTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cl := ftCluster(t)
	mapper, leaf := cl.Mappers[0], topology.SwitchBase
	sched := faults.Schedule{
		{At: ref.Completion / 3, Kind: faults.LinkDown, A: mapper, B: leaf},
		{At: 3 * ref.Completion, Kind: faults.LinkUp, A: mapper, B: leaf},
	}
	rep, err := cl.RunJobFT(WordCount, splits, sched,
		FTConfig{DeadTimeout: time.Duration(ref.Completion / 6)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderOutputs(rep), renderOutputs(ref); got != want {
		t.Fatalf("link-flap run output != fault-free output:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// ftPoolCluster is ftCluster with shared-memory switch buffers: every
// switch runs Dynamic-Threshold admission against one pool instead of
// per-port FIFOs. Sized generously enough that the job completes, small
// enough that a crash finds frames resident in the memory.
func ftPoolCluster(t *testing.T) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		NumMappers:  8,
		NumReducers: 2,
		Plan:        ftPlan(),
		TableSize:   512,
		Seed:        1,
		SwitchPool:  &netsim.PoolConfig{TotalBytes: 256 << 10, ReserveBytes: 2 << 10, Alpha: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestRunJobFTSwitchCrashPoolReset: with shared-memory switch buffers, a
// mid-job spine crash must empty the crashed switch's pool occupancy
// (Program.Crash → Switch.ResetBuffers), the FT job must still produce
// the fault-free output, and the whole run — report, pool statistics,
// outputs — must match its recorded digest.
func TestRunJobFTSwitchCrashPoolReset(t *testing.T) {
	splits, _ := miniCorpus(t, 8, 2, 150, 5, 512)

	ref, err := ftPoolCluster(t).RunJobFT(WordCount, splits, nil, FTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	spine := treeSpine(t)
	sched := faults.Schedule{
		{At: ref.Completion / 2, Kind: faults.SwitchCrash, Node: spine},
		{At: 4 * ref.Completion, Kind: faults.SwitchRestart, Node: spine},
	}
	cfg := FTConfig{DeadTimeout: time.Duration(ref.Completion / 6)}

	render := func() string {
		cl := ftPoolCluster(t)
		rep, err := cl.RunJobFT(WordCount, splits, sched, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Post-run pool state: every pool drained (or crash-reset) to empty,
		// high-water marks deterministic.
		pools := ""
		for _, sw := range cl.Fab.Plan.Switches {
			ps, ok := cl.Net.PoolStats(sw)
			if !ok {
				t.Fatalf("switch %d lost its pool", sw)
			}
			if ps.Used != 0 {
				t.Fatalf("switch %d pool still holds %d bytes after the run", sw, ps.Used)
			}
			if ps.HighWater == 0 {
				t.Fatalf("switch %d pool never held a frame", sw)
			}
			pools += fmt.Sprintf("pool %d: %+v\n", sw, ps)
		}
		return fmt.Sprintf("%+v\n%s%s", *rep, pools, renderOutputs(rep))
	}
	got := render()
	if want := renderOutputs(ref); !strings.Contains(got, want) {
		t.Fatalf("faulted pooled run output != fault-free output:\nwant:\n%s\nin:\n%s", want, got)
	}
	checkDigest(t, "pooled crash run", got, "12480 bytes 0x97d94153a14b05a1")
}

// TestRunJobFTDeterministic: a faulted run — every counter, every output
// pair, every virtual time — matches its recorded digest.
func TestRunJobFTDeterministic(t *testing.T) {
	splits, _ := miniCorpus(t, 8, 2, 150, 5, 512)
	ref, err := ftCluster(t).RunJobFT(WordCount, splits, nil, FTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	spine := treeSpine(t)
	sched := faults.Schedule{
		{At: ref.Completion / 2, Kind: faults.SwitchCrash, Node: spine},
		{At: 4 * ref.Completion, Kind: faults.SwitchRestart, Node: spine},
		{At: ref.Completion / 3, Kind: faults.HostPause, Node: ftCluster(t).Mappers[1]},
		{At: 2 * ref.Completion, Kind: faults.HostResume, Node: ftCluster(t).Mappers[1]},
	}
	cfg := FTConfig{DeadTimeout: time.Duration(ref.Completion / 6)}

	rep, err := ftCluster(t).RunJobFT(WordCount, splits, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "faulted run", fmt.Sprintf("%+v\n%s", *rep, renderOutputs(rep)), "11898 bytes 0xa5b33e212137a112")
}

// TestRunJobFTRandomSchedules replays generated random schedules — the
// property that any mix of crashes, flaps, and stragglers leaves the
// result exactly-once (RunJobFT verifies against the reference
// internally) and reproduces its recorded digest.
func TestRunJobFTRandomSchedules(t *testing.T) {
	splits, _ := miniCorpus(t, 8, 2, 100, 5, 512)
	ref, err := ftCluster(t).RunJobFT(WordCount, splits, nil, FTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plan := ftPlan()
	var links [][2]netsim.NodeID
	for _, l := range plan.Links {
		links = append(links, [2]netsim.NodeID{l.A, l.B})
	}
	cfg := FTConfig{DeadTimeout: time.Duration(ref.Completion / 6)}
	want := []string{"8164 bytes 0x89cef15e08a37718", "8162 bytes 0x6bc08c5eb4c63fb2", "8167 bytes 0x4e00fc55cc3c44b0"}
	for seed := uint64(0); seed < 3; seed++ {
		sched, err := faults.Generate(faults.GenConfig{
			Seed:           seed,
			Horizon:        ref.Completion,
			SwitchCrashes:  1,
			LinkFlaps:      1,
			HostStragglers: 1,
		}, plan.Switches, plan.Hosts[:8], links)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ftCluster(t).RunJobFT(WordCount, splits, sched, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkDigest(t, fmt.Sprintf("seed %d", seed), fmt.Sprintf("%+v\n%s", *rep, renderOutputs(rep)), want[seed])
	}
}
