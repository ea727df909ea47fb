package netsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// ---- replay harness ----
//
// The engine's contract is replay identity: for the same topology and
// workload, every observable quantity — per-node arrival traces, link
// counters, final clock, even the executed event count — is the same on
// every run. The tests here drive random cascading workloads through
// random topologies and compare full trace fingerprints with recorded
// digests.

// chatter is a test node that reacts to every arriving frame by forwarding
// mutated copies to random ports, occasionally via a delayed timer. Its RNG
// is consumed strictly in event-execution order, so any change in event
// ordering snowballs into a different trace immediately — it is a
// determinism amplifier.
type chatter struct {
	nw  *Network
	id  NodeID
	rng *rand.Rand
	log []string
}

func (c *chatter) Attach(nw *Network, id NodeID) {
	c.nw, c.id = nw, id
	c.rng = rand.New(rand.NewSource(int64(id)*0x9e3779b9 + 1))
}

func (c *chatter) HandleFrame(inPort int, frame []byte) {
	var sum uint32
	for _, b := range frame {
		sum = sum*131 + uint32(b)
	}
	c.log = append(c.log, fmt.Sprintf("%d:%d:%d:%x", c.nw.Now(), inPort, len(frame), sum))
	if len(frame) == 0 || frame[0] == 0 {
		return
	}
	nports := c.nw.NumPorts(c.id)
	if nports == 0 {
		return
	}
	// Forward 1-2 mutated, TTL-decremented copies.
	n := 1 + c.rng.Intn(2)
	for i := 0; i < n; i++ {
		nf := append([]byte(nil), frame...)
		nf[0]--
		if len(nf) > 1 {
			nf[1+c.rng.Intn(len(nf)-1)] ^= byte(1 + c.rng.Intn(255))
		}
		port := c.rng.Intn(nports)
		if c.rng.Intn(4) == 0 {
			// Delayed echo through the node's own timer path.
			d := Time(1 + c.rng.Intn(3000))
			c.nw.Eng.After(d, func() { c.nw.Send(c.id, port, nf) })
		} else {
			c.nw.Send(c.id, port, nf)
		}
	}
}

// chatterWorld builds a random connected topology of n chatter nodes.
// Construction consumes only rng, so the same seed rebuilds the identical
// world.
func chatterWorld(t *testing.T, seed int64, n int) (*Network, []*chatter) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw := New(uint64(seed))
	nodes := make([]*chatter, n)
	ids := make([]NodeID, n)
	for i := range nodes {
		nodes[i] = &chatter{}
		ids[i] = NodeID(i + 1)
		nw.AddNode(ids[i], nodes[i])
	}
	bandwidths := []int64{100_000_000, 1_000_000_000, 10_000_000_000}
	props := []time.Duration{200 * time.Nanosecond, time.Microsecond, 5 * time.Microsecond}
	queues := []int{2 << 10, 64 << 10, 1 << 20}
	link := func(a, b NodeID) {
		cfg := LinkConfig{
			BandwidthBps: bandwidths[rng.Intn(len(bandwidths))],
			Propagation:  props[rng.Intn(len(props))],
			QueueBytes:   queues[rng.Intn(len(queues))],
		}
		if rng.Intn(4) == 0 {
			cfg.LossProb = 0.05 + 0.2*rng.Float64()
		}
		nw.Connect(a, b, cfg)
	}
	for i := 1; i < n; i++ { // spanning tree keeps the graph connected
		link(ids[i], ids[rng.Intn(i)])
	}
	for e := 0; e < n/2; e++ { // extra chords
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			link(ids[a], ids[b])
		}
	}
	return nw, nodes
}

// inject queues the initial workload: every node fires a few TTL'd frames
// at t=0, the synchronized-start shape that maximizes same-tick ties.
func inject(nw *Network, nodes []*chatter, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	for _, c := range nodes {
		for k := 0; k < 1+rng.Intn(3); k++ {
			frame := make([]byte, 2+rng.Intn(180))
			rng.Read(frame)
			frame[0] = byte(3 + rng.Intn(4)) // TTL
			nw.Send(c.id, rng.Intn(nw.NumPorts(c.id)), frame)
		}
	}
}

// fingerprint renders everything the determinism contract covers.
func fingerprint(nw *Network, nodes []*chatter) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%v processed=%d total=%+v\n", nw.Now(), nw.Processed(), nw.TotalStats())
	sorted := append([]*chatter(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	for _, c := range sorted {
		fmt.Fprintf(&b, "node %d:", c.id)
		for p := 0; p < nw.NumPorts(c.id); p++ {
			fmt.Fprintf(&b, " p%d=%+v", p, nw.PortStats(c.id, p))
		}
		fmt.Fprintf(&b, " log=%s\n", strings.Join(c.log, ","))
	}
	return b.String()
}

// digest condenses a fingerprint into its length and FNV-64a, the form the
// recorded literals take.
func digest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%d bytes %#016x", len(s), h.Sum64())
}

// checkDigest compares a fingerprint's digest with its recorded literal.
func checkDigest(t *testing.T, name, fp, want string) {
	t.Helper()
	if got := digest(fp); got != want {
		t.Fatalf("%s: fingerprint digest %s, recorded %s\nfingerprint:\n%s", name, got, want, fp)
	}
}

// runWorld builds, injects, runs, and fingerprints one world.
func runWorld(t *testing.T, seed int64, n int) string {
	t.Helper()
	nw, nodes := chatterWorld(t, seed, n)
	inject(nw, nodes, seed)
	if err := nw.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	return fingerprint(nw, nodes)
}

// TestChatterReplay: random topologies and workloads replay to their
// recorded fingerprints, and identically on a repeated run.
func TestChatterReplay(t *testing.T) {
	want := []string{
		"6347 bytes 0x66dfa97ce89d0550",
		"12664 bytes 0x540ac76678679e41",
		"12380 bytes 0x2b6efcd2ae9c29fb",
		"13965 bytes 0x42b94cdfc1e1aab6",
		"17552 bytes 0x258abe138ca7785b",
		"18151 bytes 0xa4c622447620254d",
	}
	for trial := range want {
		trial := trial
		t.Run(fmt.Sprintf("world-%d", trial), func(t *testing.T) {
			t.Parallel()
			seed := int64(1000 + 77*trial)
			n := 8 + trial*3
			fp := runWorld(t, seed, n)
			checkDigest(t, "world", fp, want[trial])
			if again := runWorld(t, seed, n); again != fp {
				t.Fatal("repeated run diverged")
			}
		})
	}
}

// TestTightRingReplay: a ring with chords whose links all have a 50 ns
// propagation delay, so deliveries pile onto a handful of ticks and the
// (at, seq) tie-break decides almost every step.
func TestTightRingReplay(t *testing.T) {
	nw := New(99)
	nodes := make([]*chatter, 12)
	for i := range nodes {
		nodes[i] = &chatter{}
		nw.AddNode(NodeID(i+1), nodes[i])
	}
	cfg := LinkConfig{Propagation: 50 * time.Nanosecond, QueueBytes: 16 << 10}
	for i := range nodes {
		nw.Connect(NodeID(i+1), NodeID((i+1)%len(nodes)+1), cfg)
	}
	for i := 0; i < len(nodes); i += 3 {
		nw.Connect(NodeID(i+1), NodeID((i+len(nodes)/2)%len(nodes)+1), cfg)
	}
	for i := range nodes {
		frame := make([]byte, 40)
		frame[0] = 6 // TTL
		frame[20] = byte(i)
		nw.Send(NodeID(i+1), 0, frame)
	}
	if err := nw.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "tight ring", fingerprint(nw, nodes), "10992 bytes 0x09a7399aaab3143f")
}

// TestEventBudgetExact: maxEvents is honored exactly. A budget below the
// workload's event count fails after running exactly that many events; a
// budget of exactly the count succeeds.
func TestEventBudgetExact(t *testing.T) {
	build := func() *Network {
		nw := New(7)
		nodes := make([]*chatter, 4)
		for i := range nodes {
			nodes[i] = &chatter{}
			nw.AddNode(NodeID(i+1), nodes[i])
		}
		cfg := LinkConfig{QueueBytes: 1 << 20}
		for i := 0; i < len(nodes); i++ {
			nw.Connect(NodeID(i+1), NodeID((i+1)%len(nodes)+1), cfg)
		}
		for i := range nodes {
			frame := make([]byte, 32)
			frame[0] = 14 // TTL: a cascade of a few thousand events
			nw.Send(NodeID(i+1), 0, frame)
		}
		return nw
	}

	nw := build()
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	total := nw.Processed()
	if total < 100 {
		t.Fatalf("cascade too small to test budgets: %d events", total)
	}

	budget := total / 2
	nw = build()
	err := nw.Run(budget)
	if err == nil || !strings.Contains(err.Error(), "event budget") {
		t.Fatalf("budget %d of %d events: want a budget error, got %v", budget, total, err)
	}
	if got := nw.Processed(); got != budget {
		t.Fatalf("executed %d events under budget %d", got, budget)
	}

	nw = build()
	if err := nw.Run(total); err != nil {
		t.Fatalf("budget == total must succeed: %v", err)
	}
	if got := nw.Processed(); got != total {
		t.Fatalf("processed %d, want %d", got, total)
	}
}

// TestNodePanicPropagates: a panicking node callback surfaces to Run's
// caller.
func TestNodePanicPropagates(t *testing.T) {
	nw := New(1)
	nw.AddNode(1, &chatter{})
	nw.AddNode(2, &panicNode{})
	nw.Connect(1, 2, LinkConfig{})
	nw.Send(1, 0, []byte{1, 2, 3})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("node panic swallowed by Run")
		}
	}()
	_ = nw.Run(0)
}

type panicNode struct{}

func (p *panicNode) Attach(*Network, NodeID) {}
func (p *panicNode) HandleFrame(int, []byte) { panic("node exploded") }
