package experiments

import (
	"testing"

	"github.com/daiet/daiet/internal/netsim"
)

// smallBig is a fast-but-contended bigincast config for unit tests.
func smallBig() BigIncastConfig {
	return BigIncastConfig{
		Seed:           7,
		Senders:        32,
		Racks:          2,
		PairsPerSender: 200,
		Vocab:          2048,
		TableSize:      64, // collisions dominate: spill fan-in stays incast-shaped
		PoolBytes:      48 << 10,
	}
}

// TestBigIncastSmoke: the fabric-scale fan-in completes exactly-once under
// shared-memory pressure, and the pressure is real (drops happened, the
// pool high-water mark is meaningful).
func TestBigIncastSmoke(t *testing.T) {
	res, err := BigIncast(smallBig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("drop=%.3f%% hw=%.1f%% fair=%.3f retx=%d swretx=%d stalls=%d compl=%v",
		res.DropRatePct, res.PoolHighWaterPct, res.PortFairness,
		res.Retransmissions, res.SwitchRetransmissions, res.FlushStalls, res.Completion)
	if res.FramesDropped == 0 {
		t.Fatal("no switch-memory drops: the scenario exercises nothing")
	}
	if res.PoolHighWaterPct <= 0 || res.PoolHighWaterPct > 100 {
		t.Fatalf("pool high-water %.2f%%", res.PoolHighWaterPct)
	}
	if res.PortFairness <= 0 || res.PortFairness > 1 {
		t.Fatalf("fairness %v outside (0, 1]", res.PortFairness)
	}
}

// TestBigIncastDTDominatesStatic is the headline claim of the shared-memory
// model: Dynamic-Threshold sharing of one memory strictly beats an equal
// static partition of the same total bytes on drop rate, at every swept
// alpha.
func TestBigIncastDTDominatesStatic(t *testing.T) {
	static := smallBig()
	static.StaticPartition = true
	statRes, err := BigIncast(static)
	if err != nil {
		t.Fatal(err)
	}
	if statRes.FramesDropped == 0 {
		t.Fatal("static split dropped nothing: memory not contended")
	}
	for _, alpha := range []float64{0.5, 1, 2, 8} {
		dt := smallBig()
		dt.Alpha = alpha
		res, err := BigIncast(dt)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("alpha=%g: DT drop %.3f%% vs static %.3f%%", alpha, res.DropRatePct, statRes.DropRatePct)
		if res.DropRatePct >= statRes.DropRatePct {
			t.Fatalf("alpha=%g: DT drop rate %.3f%% not below static %.3f%%",
				alpha, res.DropRatePct, statRes.DropRatePct)
		}
	}
}

// renderBigIncast256x4 runs the full-size 256-sender / 4-rack fan-in and
// renders every workload counter of the result: drops, retransmissions,
// pool marks, fairness, virtual completion.
func renderBigIncast256x4(t *testing.T) string {
	t.Helper()
	fo := newFrameOrder()
	res, err := bigIncast(BigIncastConfig{
		Seed:           3,
		Senders:        256,
		Racks:          4,
		PairsPerSender: 40, // full fan-in, shortened streams: CI-sized
		Vocab:          2048,
		TableSize:      512,
		PoolBytes:      64 << 10, // small enough that the leaves drop and replay
	}, fo)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDropped == 0 || res.SwitchRetransmissions == 0 {
		t.Fatalf("no pool pressure (dropped %d, switch retransmissions %d): the loss path goes unchecked",
			res.FramesDropped, res.SwitchRetransmissions)
	}
	// Arena occupancy describes how the engine stored the run, not what the
	// fabric did; the reference records the workload counters only.
	res.ArenaStats = netsim.ArenaStats{}
	return fieldLines(*res) + fo.line()
}
