package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a repo layer: name, start, end (ns since the
// recorder's epoch), the span that caused it (index into the recorder, -1
// for a root) and the trial it belongs to (-1 for set-up).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Trial  int32  `json:"trial"`
}

// recorder keeps spans in memory. A nil *recorder is the switched-off
// state: begin and end cost one nil check, so the untraced drivers run the
// same code as the traced ones. Spans are recorded only around calls made
// from this directory; no repo package knows the recorder exists.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of open span indexes
	trial int32
}

func newRecorder() *recorder {
	return &recorder{
		epoch: time.Now(),
		spans: make([]span, 0, 1<<17), // fanin-wide: ~1100 spans × ~65 traced trials
		trial: -1,
	}
}

// begin opens a span under the innermost open one and returns its handle.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Parent: parent, Trial: r.trial})
	r.open = append(r.open, id)
	r.spans[id].Start = int64(time.Since(r.epoch))
	return id
}

// end closes the span begin returned. Spans close in LIFO order.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// mark and rollback let the harness discard the spans of a trial that
// failed part-way, open ones included.
func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

func (r *recorder) rollback(mark int) {
	if r != nil {
		r.spans = r.spans[:mark]
		r.open = r.open[:0]
	}
}

// setTrial tags the spans that follow with a trial id (-1: set-up).
func (r *recorder) setTrial(id int32) {
	if r != nil {
		r.trial = id
	}
}

// selfTimes returns every span's self time: its duration minus the part of
// that interval its direct children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// checkSpans verifies the recorder's arithmetic: every span is closed,
// every child lies inside its parent and shares its trial, and no self
// time is negative.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if int(s.Parent) >= i {
			return fmt.Errorf("span %d %q has parent %d recorded after it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q lies outside its parent %q", i, s.Name, p.Name)
		}
		if s.Trial != p.Trial {
			return fmt.Errorf("span %d %q is in trial %d, its parent in %d", i, s.Name, s.Trial, p.Trial)
		}
	}
	for i, v := range selfTimes(spans) {
		if v < 0 {
			return fmt.Errorf("span %d %q has negative self time %d ns", i, spans[i].Name, v)
		}
	}
	return nil
}

// selfMsByTrial sums self time per span name within each trial id and
// returns, per name, one value in milliseconds for every trial id that has
// at least one span of any name. Trials where a name never ran count as 0,
// so a median over them is the median cost per trial.
func selfMsByTrial(spans []span, setup bool) map[string][]float64 {
	self := selfTimes(spans)
	ids := map[int32]int{} // trial id -> dense index, in order of appearance
	for _, s := range spans {
		if (s.Trial < 0) != setup {
			continue
		}
		if _, ok := ids[s.Trial]; !ok {
			ids[s.Trial] = len(ids)
		}
	}
	out := map[string][]float64{}
	for i, s := range spans {
		idx, ok := ids[s.Trial]
		if !ok || (s.Trial < 0) != setup {
			continue
		}
		if out[s.Name] == nil {
			out[s.Name] = make([]float64, len(ids))
		}
		out[s.Name][idx] += float64(self[i]) / 1e6
	}
	return out
}

// writeSpansFile dumps every span as one JSON object per line.
func writeSpansFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
