package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary of the in-process copy.
// Spans of one request share Req; Parent is the span that made the call (0
// for a request's root, or for work a layer runs on its own goroutine).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced copy runs the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span; end closes it. The zero value is a no-op.
type spanRef struct {
	t  *tracer
	id int64
}

// begin opens a span named name under parent for request req.
func (t *tracer) begin(name string, req int64, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return spanRef{t, id}
}

// end closes the span.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, req int64, parent spanRef, fn func()) {
	s := t.begin(name, req, parent)
	fn()
	s.end()
}

// writeJSONL writes every span, one JSON object per line, to path.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats is every span of one name: total durations and self times
// (duration minus the part of it the span's children cover).
type spanStats struct {
	dur, self []float64 // microseconds
}

// summarize groups the finished spans by name.
func (t *tracer) summarize() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanStats)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.dur = append(st.dur, float64(d)/1e3)
		st.self = append(st.self, float64(d-covered(s, children[s.ID]))/1e3)
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// kids covers; children that ran concurrently are not counted twice.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return sum + curHi - curLo
}

// count returns how many spans were recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
