//go:build !race

// The race detector's instrumentation allocates, so allocation pins run
// without it.

package experiments

import "testing"

// TestReliableRoundAllocs pins the allocations of one small lossy
// hop-by-hop reliable fan-in round: 16 senders × 400 pairs across two
// racks, a replay window on every switch, and 16 KiB switch memories
// that drop a fifth of the frames, so go-back-N resends run on both the
// hosts and the switches. It counts everything — deployment, workload
// draw, run and exactly-once check — and its ceiling was recorded with
// go1.24 on amd64 (29,370 allocations). A timer closure per arm or a
// payload copy per enqueue adds 600 or more and fails it by name.
func TestReliableRoundAllocs(t *testing.T) {
	const ceiling = 29_600
	cfg := BigIncastConfig{Seed: 1, Racks: 2, Senders: 16, PairsPerSender: 400, PoolBytes: 16 << 10}
	var res *BigIncastResult
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if res, err = BigIncast(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if res.SwitchRetransmissions == 0 || res.FramesDropped == 0 {
		t.Fatalf("round lost nothing (%+v): the pin must cover the resend paths", res)
	}
	if allocs > ceiling {
		t.Fatalf("one reliable round: %.0f allocations, ceiling %d", allocs, ceiling)
	}
}
