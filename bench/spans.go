package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program: the layer and function, when the call started and
// returned (ns since the recorder's origin), the span that caused it and
// the query it belongs to (-1 for none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
}

// recorder keeps spans in a preallocated slice and writes them out when
// the traced pass ends. One goroutine only: the traced pass is a single
// client, which is also what makes its counts repeat exactly.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, query int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Query: query})
	id := len(r.spans) - 1
	r.spans[id].Start = int64(time.Since(r.origin))
	return id
}

// end closes span id and returns its duration in ns.
func (r *recorder) end(id int) int64 {
	now := int64(time.Since(r.origin))
	r.spans[id].End = now
	return now - r.spans[id].Start
}

// durations lists the ns durations of every span called name, in order.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if r.spans[i].Name == name {
			out = append(out, float64(r.spans[i].End-r.spans[i].Start))
		}
	}
	return out
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover (overlapping children are counted
// once, and a child is clipped to its parent).
func (r *recorder) selfTimes() []int64 {
	covered := make([]int64, len(r.spans))
	reach := make([]int64, len(r.spans)) // end of the covered prefix per parent
	for i := range r.spans {
		reach[i] = r.spans[i].Start
	}
	// Children of one parent are recorded in start order (one goroutine),
	// so a single sweep unions their intervals.
	for _, c := range r.spans {
		p := c.Parent
		if p < 0 {
			continue
		}
		lo, hi := c.Start, c.End
		if lo < reach[p] {
			lo = reach[p]
		}
		if hi > r.spans[p].End {
			hi = r.spans[p].End
		}
		if hi > lo {
			covered[p] += hi - lo
			reach[p] = hi
		}
	}
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] = s.End - s.Start - covered[i]
	}
	return self
}

// writeJSON stores the spans, each with its self time, at path, creating
// the directory.
func (r *recorder) writeJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type record struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := r.selfTimes()
	out := make([]record, len(r.spans))
	for i, s := range r.spans {
		out[i] = record{s, self[i]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
