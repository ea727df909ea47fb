package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/daiet/daiet/internal/netsim"
)

func TestSeriesRingOverwritesOldest(t *testing.T) {
	s := newSeries(7, 4, false)
	for i := 1; i <= 6; i++ {
		s.append(Record{V0: int64(i)})
	}
	if s.dropped != 2 {
		t.Fatalf("dropped %d, want 2", s.dropped)
	}
	got := s.snapshot(nil)
	if len(got) != 4 {
		t.Fatalf("retained %d, want 4", len(got))
	}
	for i, r := range got {
		if want := uint64(i + 3); r.Seq != want || r.V0 != int64(want) || r.Origin != 7 {
			t.Fatalf("slot %d: %+v (want seq %d)", i, r, want)
		}
	}
}

func TestSeriesStickyKeepsFirst(t *testing.T) {
	s := newSeries(9, 3, true)
	for i := 1; i <= 5; i++ {
		s.append(Record{V0: int64(i)})
	}
	got := s.snapshot(nil)
	if len(got) != 3 || s.dropped != 2 {
		t.Fatalf("retained %d dropped %d, want 3/2", len(got), s.dropped)
	}
	for i, r := range got {
		if want := uint64(i + 1); r.Seq != want || r.V0 != int64(want) {
			t.Fatalf("slot %d: %+v", i, r)
		}
	}
}

func TestSortRecordsTotalOrder(t *testing.T) {
	recs := []Record{
		{At: 20, Origin: 1, Seq: 1},
		{At: 10, Origin: 2, Seq: 2},
		{At: 10, Origin: 1, Seq: 3},
		{At: 10, Origin: 1, Seq: 1},
	}
	sortRecords(recs)
	want := []Record{
		{At: 10, Origin: 1, Seq: 1},
		{At: 10, Origin: 1, Seq: 3},
		{At: 10, Origin: 2, Seq: 2},
		{At: 20, Origin: 1, Seq: 1},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("order %+v", recs)
	}
}

func TestTimelineRoundTrip(t *testing.T) {
	tl := &Timeline{
		Cadence: 50_000,
		Dropped: 3,
		Records: []Record{
			{At: 1, Origin: 0, Seq: 1, Kind: KindControl, V0: 12, V1: 34},
			{At: 2, Origin: 5, Seq: 1, Kind: KindPool, Node: 5, V0: 100, V1: 200, V2: 300, V3: 4},
			{At: 2, Origin: 5, Seq: 2, Kind: KindClass, Node: 5, K: 1, V0: 10},
			{At: 3, Origin: hopOriginBase | 5, Seq: 1, Kind: KindHop, Node: 5, K: 2, V0: 9, V1: 1, V2: 512, V3: 256, V4: int64(netsim.FrameDropPool)},
			{At: 4, Origin: 0, Seq: 2, Kind: KindMonitor, Node: 7, V0: 8, Note: `link-dead with "spaces"`},
		},
		Engine: []EngineSample{
			{At: 4, FrameLive: 1, FramePeak: 9, TimerPeak: 3, Bytes: 4096},
		},
	}
	var buf bytes.Buffer
	if _, err := tl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTimeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tl) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, tl)
	}
	// DeterministicBytes excludes the engine section but keeps the rest.
	det := tl.DeterministicBytes()
	if bytes.Contains(det, []byte("engine ")) {
		t.Fatal("DeterministicBytes contains engine lines")
	}
	stripped := *tl
	stripped.Engine = nil
	if !bytes.Equal(det, stripped.Bytes()) {
		t.Fatal("DeterministicBytes != full render minus engine")
	}
	// A v2 timeline, whose engine lines carried the partitioned engine's
	// counters, is refused by the header check.
	v2 := "daiet-timeline v2\ncadence 50000\ndropped 0\nengine 4 2 1 9 3 4096 1 17 30 4 1500\n"
	if _, err := ReadTimeline(strings.NewReader(v2)); err == nil {
		t.Fatal("v2 timeline accepted")
	}
}

// pulseSender drives the recorder integration tests: every interval it
// sends one frame out port 0 until count frames have left.
type pulseSender struct {
	nw       *netsim.Network
	id       netsim.NodeID
	interval netsim.Time
	count    int
	frame    []byte
}

func (p *pulseSender) Attach(nw *netsim.Network, id netsim.NodeID) { p.nw, p.id = nw, id }
func (p *pulseSender) HandleFrame(int, []byte)                     {}
func (p *pulseSender) start() {
	p.nw.Eng.After(p.interval, p.tick)
}
func (p *pulseSender) tick() {
	if p.count <= 0 {
		return
	}
	p.count--
	p.nw.Send(p.id, 0, p.frame)
	if p.count > 0 {
		p.nw.Eng.After(p.interval, p.tick)
	}
}

// forward relays every frame out port 0.
type forward struct {
	nw *netsim.Network
	id netsim.NodeID
}

func (f *forward) Attach(nw *netsim.Network, id netsim.NodeID) { f.nw, f.id = nw, id }
func (f *forward) HandleFrame(_ int, frame []byte)             { f.nw.Send(f.id, 0, frame) }

type devnull struct{}

func (devnull) Attach(*netsim.Network, netsim.NodeID) {}
func (devnull) HandleFrame(int, []byte)               {}

// probeWorld: sender 10 → pooled switch 1 → sink 2, with a long enough
// pulse train that several probe cadences elapse mid-traffic.
func probeWorld(t *testing.T) (*netsim.Network, *pulseSender) {
	t.Helper()
	nw := netsim.New(1)
	nw.AddNode(1, &forward{})
	nw.AddNode(2, devnull{})
	sender := &pulseSender{interval: netsim.Duration(10 * time.Microsecond),
		count: 100, frame: make([]byte, 512)}
	nw.AddNode(10, sender)
	nw.Connect(1, 2, netsim.LinkConfig{BandwidthBps: 100_000_000}) // port 0: uplink
	nw.Connect(10, 1, netsim.LinkConfig{})
	if err := nw.SetNodePool(1, netsim.PoolConfig{TotalBytes: 1 << 20, ReserveBytes: 4 << 10, Alpha: 2}); err != nil {
		t.Fatal(err)
	}
	return nw, sender
}

func TestRecorderSampledRun(t *testing.T) {
	nw, sender := probeWorld(t)
	rec := NewRecorder(nw, Config{})
	if err := rec.WatchSwitch(1, nil); err != nil {
		t.Fatal(err)
	}
	rec.Start()
	sender.start()
	if err := rec.RunSampled(0); err != nil {
		t.Fatal(err)
	}
	if sender.count != 0 {
		t.Fatalf("sender stalled with %d frames left", sender.count)
	}
	if pending := nw.Pending(); pending != 0 {
		t.Fatalf("%d events pending after RunSampled", pending)
	}
	tl := rec.Timeline()
	counts := map[Kind]int{}
	for i := range tl.Records {
		counts[tl.Records[i].Kind]++
	}
	if counts[KindPool] == 0 || counts[KindPort] == 0 || counts[KindControl] == 0 {
		t.Fatalf("record mix %v", counts)
	}
	if counts[KindClass] != counts[KindPool] {
		t.Fatalf("one-class pool: %d class records vs %d pool records", counts[KindClass], counts[KindPool])
	}
	if len(tl.Engine) < 2 {
		t.Fatalf("%d engine samples", len(tl.Engine))
	}
	// The merged timeline must already be in key order, with unique keys.
	for i := 1; i < len(tl.Records); i++ {
		a, b := &tl.Records[i-1], &tl.Records[i]
		if a.At > b.At || (a.At == b.At && a.Origin > b.Origin) ||
			(a.At == b.At && a.Origin == b.Origin && a.Seq >= b.Seq) {
			t.Fatalf("records %d/%d out of order: %+v then %+v", i-1, i, a, b)
		}
	}
	// A port record's cumulative-tx gauge must end at the frame count.
	var lastTx int64
	for i := range tl.Records {
		r := &tl.Records[i]
		if r.Kind == KindPort && r.Node == 1 && r.K == 0 {
			lastTx = r.V3
		}
	}
	if lastTx != 100 {
		t.Fatalf("final cumulative tx %d, want 100", lastTx)
	}
}

func TestRecorderPathTrace(t *testing.T) {
	nw, sender := probeWorld(t)
	rec := NewRecorder(nw, Config{
		PathTrace: PathTraceConfig{SampleEvery: 1, Capacity: 64},
	})
	if err := rec.WatchSwitch(1, nil); err != nil {
		t.Fatal(err)
	}
	rec.EnablePathTrace([]netsim.NodeID{1})
	rec.Start()
	sender.start()
	if err := rec.RunSampled(0); err != nil {
		t.Fatal(err)
	}
	tl := rec.Timeline()
	hops := 0
	for i := range tl.Records {
		r := &tl.Records[i]
		if r.Kind != KindHop {
			continue
		}
		hops++
		if r.Node != 1 || r.Origin != hopOriginBase|1 {
			t.Fatalf("hop record from unexpected origin: %+v", r)
		}
		if r.V0 != 2 || r.V3 != 512 || netsim.FrameVerdict(r.V4) != netsim.FrameAccepted {
			t.Fatalf("hop record %+v", r)
		}
	}
	// SampleEvery 1 samples every flow; the switch relays 64 of the 100
	// frames into the sticky slab, the rest overflow.
	if hops != 64 {
		t.Fatalf("%d hop records, want 64 (slab capacity)", hops)
	}
	if tl.Dropped == 0 {
		t.Fatal("slab overflow not counted")
	}
}
