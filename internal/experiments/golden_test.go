package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io/fs"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/daiet/daiet/internal/netsim"
)

// testdata/figures.golden is the committed record of what the simulation
// computes. It holds one section per registry figure (its
// DeterministicString at goldenCfg), one per reference in goldenRefs, and
// one per registered timeline (its line count and hash).
// TestFiguresGolden, TestReferencesGolden and TestTimelinesGolden render
// every section; the determinism suites compare their parallel runs
// against the same sections. A change that moves the simulation rewrites
// the file with
//
//	go test ./internal/experiments -run Golden -update
//
// and the diff names the figure, point and metric (or the reference
// section and result field) that moved.

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the sections this run renders")

const (
	goldenPath = "testdata/figures.golden"
	// goldenArch is the only GOARCH the golden is checked on: arm64 and
	// others may fuse multiply-adds (FMA), which changes float rounding.
	goldenArch       = "amd64"
	goldenSectionTag = "=== "
	goldenToolchain  = "toolchain "
)

// goldenCfg is the configuration every figure section is rendered at.
var goldenCfg = RunConfig{Seed: 7, Seeds: 2, Scale: 0.08, Parallelism: 1}

// goldenRefs render every counter of one trial result. At goldenCfg's
// scale the bigincast and tenants figures drop no frame at any point, so
// these sections are where pool pressure, drops and retransmissions are
// pinned.
var goldenRefs = map[string]func(t *testing.T) string{
	"bigincast-256x4": renderBigIncast256x4,
	"incast":          func(t *testing.T) string { return renderIncast(t, false) },
	"incast-pool":     func(t *testing.T) string { return renderIncast(t, true) },
	"megaincast":      renderMegaIncast,
	"multirack":       renderMultiRack,
	"tenants":         renderTenants,
}

// TestFiguresGolden is the registry's sequential pass: every figure runs
// at goldenCfg, its result is checked for shape, and its
// DeterministicString must equal the figure's golden section.
func TestFiguresGolden(t *testing.T) {
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			res, err := spec.Execute(goldenCfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Points) != len(spec.Points) {
				t.Fatalf("%d points, want %d", len(res.Points), len(spec.Points))
			}
			var buf bytes.Buffer
			res.WriteTable(&buf)
			for _, m := range spec.Metrics {
				if !strings.Contains(buf.String(), m) {
					t.Fatalf("table missing column %q:\n%s", m, buf.String())
				}
			}
			checkFigurePoints(t, spec, res, func(t *testing.T, pt PointResult) {
				if len(pt.Metrics) != len(spec.Metrics) {
					t.Fatalf("%d metrics, want %d", len(pt.Metrics), len(spec.Metrics))
				}
				for _, m := range spec.Metrics {
					e, ok := pt.Metrics[m]
					if !ok {
						t.Fatalf("missing metric %q", m)
					}
					if e.N != goldenCfg.Seeds {
						t.Fatalf("metric %s: n=%d, want %d", m, e.N, goldenCfg.Seeds)
					}
					if !(e.Lo <= e.Mean && e.Mean <= e.Hi) {
						t.Fatalf("metric %s: interval %v not ordered", m, e)
					}
				}
			})
		})
	}
}

// TestReferencesGolden renders every reference and checks it against its
// golden section.
func TestReferencesGolden(t *testing.T) {
	for name, render := range goldenRefs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkGoldenParts(t, refSection(name), render(t), fieldOf, nil)
		})
	}
}

func figureSection(s *Spec) string  { return "figure " + s.Name }
func refSection(name string) string { return "ref " + name }

// checkFigureGolden executes spec at cfg and compares the result with the
// figure's golden section.
func checkFigureGolden(t *testing.T, spec *Spec, cfg RunConfig) {
	t.Helper()
	res, err := spec.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFigurePoints(t, spec, res, nil)
}

// checkFigurePoints compares res with the figure's golden section, one
// subtest per point, then as a whole. check, when set, also runs on each
// point in its subtest.
func checkFigurePoints(t *testing.T, spec *Spec, res *FigureResult, check func(*testing.T, PointResult)) {
	t.Helper()
	points := make(map[string]PointResult, len(res.Points))
	for _, pt := range res.Points {
		points[pt.Label] = pt
	}
	checkGoldenParts(t, figureSection(spec), res.DeterministicString(spec.Volatile), pointOf, func(t *testing.T, label string) {
		if check != nil {
			check(t, points[label])
		}
	})
}

// checkGoldenParts compares got with the golden section one part at a
// time, a subtest per part of got, then as a whole. part names the part a
// line belongs to ("" for none), and each, when set, also runs in every
// part's subtest. A change that moves the simulation thus names each point
// or field it moved, not only the first differing line; the whole-section
// check catches parts that went missing or changed order.
func checkGoldenParts(t *testing.T, section, got string, part func(line string) string, each func(t *testing.T, name string)) {
	t.Helper()
	gotParts, names := splitParts(got, part)
	var want map[string]string
	compare := !*update && runtime.GOARCH == goldenArch
	if compare {
		g, err := loadGolden()
		if err != nil {
			t.Fatal(err)
		}
		want, _ = splitParts(g.sections[section], part)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if each != nil {
				each(t, name)
			}
			if compare && gotParts[name] != want[name] {
				t.Errorf("%s section %q, %s:\ngolden:\n%sgot:\n%s", goldenPath, section, name, orNone(want[name]), gotParts[name])
			}
		})
	}
	checkGolden(t, section, got)
}

func orNone(lines string) string {
	if lines == "" {
		return "<none>\n"
	}
	return lines
}

// splitParts groups text's lines by part, keeping the order in which
// parts first appear. Lines of part "" are dropped.
func splitParts(text string, part func(line string) string) (parts map[string]string, names []string) {
	parts = map[string]string{}
	for _, line := range strings.SplitAfter(text, "\n") {
		name := part(line)
		if name == "" {
			continue
		}
		if _, ok := parts[name]; !ok {
			names = append(names, name)
		}
		parts[name] += line
	}
	return parts, names
}

// pointOf names the point of a DeterministicString metric line,
// "<label> x=<x> <metric>: n=...", by its label; the header line has none.
func pointOf(line string) string {
	head, _, ok := strings.Cut(line, ": n=")
	if !ok {
		return ""
	}
	if i := strings.LastIndex(head, " x="); i >= 0 {
		return head[:i]
	}
	return ""
}

// fieldOf names the field of a fieldLines line, "<field>: <value>".
func fieldOf(line string) string {
	field, _, _ := strings.Cut(line, ": ")
	return strings.TrimSuffix(field, "\n")
}

// fieldLines renders a result struct one top-level field per line, so a
// golden diff names the field that moved.
func fieldLines(v any) string {
	rv := reflect.ValueOf(v)
	var b strings.Builder
	for i := 0; i < rv.NumField(); i++ {
		fmt.Fprintf(&b, "%s: %+v\n", rv.Type().Field(i).Name, rv.Field(i))
	}
	return b.String()
}

// frameOrder is a netsim.FrameTracer that folds every admission attempt
// — (at, src, dst, dst port, class, size, verdict) and an FNV-64a of the
// frame bytes — into one running FNV-64a. The result counters of a
// symmetric fan-in do not change when same-tick events run in another
// order (senders started in map order, say); this digest does.
type frameOrder struct {
	h      hash.Hash64
	frames int
}

func newFrameOrder() *frameOrder { return &frameOrder{h: fnv.New64a()} }

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

// line renders the digest as the reference field line "FrameOrder: ...".
func (f *frameOrder) line() string {
	return fmt.Sprintf("FrameOrder: %d frames %#016x\n", f.frames, f.h.Sum64())
}

// checkGolden compares got with the golden section of that name and, on a
// mismatch, reports the first line that differs. Under -update it records
// got instead; TestMain writes the file once every test has passed.
func checkGolden(t *testing.T, section, got string) {
	t.Helper()
	if runtime.GOARCH != goldenArch {
		t.Skipf("%s is produced on %s; %s may fuse multiply-adds", goldenPath, goldenArch, runtime.GOARCH)
	}
	if !strings.HasSuffix(got, "\n") {
		got += "\n"
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		g.record(t, section, got)
		return
	}
	want, ok := g.sections[section]
	if !ok {
		t.Fatalf("%s has no section %q; rewrite it with go test ./internal/experiments -run Golden -update", goldenPath, section)
	}
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	note := ""
	if g.toolchain != goldenToolchainLine() {
		note = fmt.Sprintf("\n(the golden was written by %q, this is %q)", g.toolchain, goldenToolchainLine())
	}
	t.Fatalf("%s section %q differs at line %d:\ngolden: %s\ngot:    %s%s",
		goldenPath, section, i+1, lineAt(wl, i), lineAt(gl, i), note)
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of section>"
}

// goldenToolchainLine is the header line naming the Go major.minor and
// architecture the golden was written with.
func goldenToolchainLine() string {
	v := runtime.Version() // "go1.24.0", "go1.25rc1", ...
	major, rest, _ := strings.Cut(v, ".")
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	return goldenToolchain + major + "." + rest[:n] + " " + goldenArch
}

type goldenFile struct {
	toolchain string
	sections  map[string]string

	mu       sync.Mutex
	recorded map[string]string // -update: sections rendered by this run
}

var (
	goldenOnce sync.Once
	golden     *goldenFile
	goldenErr  error
)

func loadGolden() (*goldenFile, error) {
	goldenOnce.Do(func() {
		golden = &goldenFile{sections: map[string]string{}, recorded: map[string]string{}}
		data, err := os.ReadFile(goldenPath)
		if errors.Is(err, fs.ErrNotExist) && *update {
			return
		}
		if err != nil {
			goldenErr = err
			return
		}
		goldenErr = golden.parse(string(data))
	})
	return golden, goldenErr
}

// parse reads the file format: header lines, then sections, each a
// "=== <name>" line followed by the section's lines.
func (g *goldenFile) parse(data string) error {
	name, inSection := "", false
	var body strings.Builder
	flush := func() {
		if inSection {
			g.sections[name] = body.String()
		}
		body.Reset()
	}
	for _, line := range strings.SplitAfter(data, "\n") {
		switch {
		case strings.HasPrefix(line, goldenSectionTag):
			flush()
			name, inSection = strings.TrimSuffix(strings.TrimPrefix(line, goldenSectionTag), "\n"), true
			if _, dup := g.sections[name]; dup {
				return fmt.Errorf("%s: duplicate section %q", goldenPath, name)
			}
		case inSection:
			body.WriteString(line)
		case strings.HasPrefix(line, goldenToolchain):
			g.toolchain = strings.TrimSuffix(line, "\n")
		}
	}
	flush()
	return nil
}

// record keeps got as the section's new content. Two renders of one
// section in the same run must agree: that is the determinism contract.
func (g *goldenFile) record(t *testing.T, section, got string) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.recorded[section]; ok && prev != got {
		t.Fatalf("section %q rendered two different ways in one run:\n%s\nvs\n%s", section, prev, got)
	}
	g.recorded[section] = got
}

// write rewrites the file with one section per registry figure and
// reference, taking each from this run when it rendered one.
func (g *goldenFile) write() error {
	var names []string
	for _, s := range Specs() {
		names = append(names, figureSection(s))
	}
	for name := range goldenRefs {
		names = append(names, refSection(name))
	}
	for _, s := range TimelineSpecs() {
		names = append(names, timelineSection(s.Name))
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "# What every registry figure and sequential reference computes.\n"+
		"# Figure sections: DeterministicString at RunConfig%+v.\n"+
		"# Rewrite with: go test ./internal/experiments -run Golden -update\n%s\n",
		goldenCfg, goldenToolchainLine())
	for _, name := range names {
		body, ok := g.recorded[name]
		if !ok {
			body, ok = g.sections[name]
		}
		if !ok {
			return fmt.Errorf("%s: this run rendered no section %q", goldenPath, name)
		}
		b.WriteString(goldenSectionTag + name + "\n" + body)
	}
	return os.WriteFile(goldenPath, []byte(b.String()), 0o644)
}

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if *update && code == 0 {
		err := goldenErr
		if err == nil && golden == nil {
			err = fmt.Errorf("-update: no test rendered a golden section (the golden is written on %s only)", goldenArch)
		}
		if err == nil {
			err = golden.write()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}
