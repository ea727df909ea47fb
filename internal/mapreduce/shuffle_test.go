package mapreduce

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
)

// frameOrder is a netsim.FrameTracer that folds every admission attempt
// — (at, src, dst, dst port, class, size, verdict) and an FNV-64a of the
// frame bytes — into one running FNV-64a. The digests and outputs the
// other tests pin do not change when two mappers' same-tick frames swap
// places; this does.
type frameOrder struct {
	h      hash.Hash64
	frames int
}

func (f *frameOrder) TraceFrame(info netsim.FrameTraceInfo, frame []byte) {
	fh := fnv.New64a()
	fh.Write(frame)
	var b [8 * 8]byte
	for i, v := range [...]uint64{uint64(info.At), uint64(info.Src), uint64(info.Dst),
		uint64(info.DstPort), uint64(info.Class), uint64(info.Size), uint64(info.Verdict), fh.Sum64()} {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	f.h.Write(b[:])
	f.frames++
}

// traced installs a frame-order tracer on the cluster's fabric.
func traced(cl *Cluster) *frameOrder {
	fo := &frameOrder{h: fnv.New64a()}
	cl.Net.SetFrameTracer(fo)
	return fo
}

func (f *frameOrder) String() string { return fmt.Sprintf("%d frames %#016x", f.frames, f.h.Sum64()) }

// TestShuffleFrameOrder pins the order in which every shuffle entry
// point puts frames on the wire: RunJob in each mode over a pooled
// leaf-spine, a two-tenant RunJobs, and a fault-free RunJobFT.
func TestShuffleFrameOrder(t *testing.T) {
	const mappers, reducers, tableSize = 5, 3, 512
	splits, _ := miniCorpus(t, mappers, reducers, 120, 5, tableSize)
	want := map[Mode]string{
		ModeDAIET:       "319 frames 0xc4ba08ea609e7466",
		ModeUDPBaseline: "728 frames 0x265cb65ec68f4169",
		ModeTCPBaseline: "594 frames 0xdec11d05ecf42cba",
	}
	for _, mode := range []Mode{ModeDAIET, ModeUDPBaseline, ModeTCPBaseline} {
		cl, err := NewCluster(ClusterConfig{
			NumMappers: mappers, NumReducers: reducers, TableSize: tableSize, Seed: 1,
			Plan:       topology.LeafSpine(2, 2, 4, netsim.LinkConfig{QueueBytes: 64 << 20}),
			SwitchPool: &netsim.PoolConfig{TotalBytes: 4 << 20, ReserveBytes: 4096, Alpha: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		fo := traced(cl)
		if _, err := cl.RunJob(WordCount, splits, mode); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := fo.String(); got != want[mode] {
			t.Errorf("RunJob %v: frame order %s, recorded %s", mode, got, want[mode])
		}
	}

	cl, err := NewCluster(ClusterConfig{
		NumMappers: 6, NumReducers: 4, TableSize: tableSize, Seed: 3,
		SwitchPool: multiTenantPool(),
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := tenantPair(t, cl, tableSize)
	fo := traced(cl)
	if _, err := cl.RunJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if got, want := fo.String(), "358 frames 0xf8f505d56ad247cd"; got != want {
		t.Errorf("RunJobs: frame order %s, recorded %s", got, want)
	}

	ft := ftCluster(t)
	ftSplits, _ := miniCorpus(t, 8, 2, 150, 5, 512)
	fo = traced(ft)
	if _, err := ft.RunJobFT(WordCount, ftSplits, nil, FTConfig{}); err != nil {
		t.Fatal(err)
	}
	if got, want := fo.String(), "267 frames 0x8a16a1b51dc1c0d9"; got != want {
		t.Errorf("RunJobFT: frame order %s, recorded %s", got, want)
	}
}
