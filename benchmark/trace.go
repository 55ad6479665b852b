package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one call the harness made into a layer, timed on the host clock.
// Parent 0 means a root; ids start at 1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// SelfNs is the span's duration minus the part its children cover.
	SelfNs int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the child exits. A nil tracer records
// nothing, which is how untraced runs keep tracing entirely off. The
// harness drives the layers from one goroutine, so a stack is enough to
// find each span's parent.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans of the spans not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span called name.
func (t *tracer) do(name string, f func() error) error {
	if t == nil {
		return f()
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds()})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	err := f()
	t.spans[idx].EndNs = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
	return err
}

// finish computes self times. Children of one parent never overlap (one
// goroutine), so the covered part is the sum of their durations.
func (t *tracer) finish() []span {
	covered := make(map[int]int64)
	for _, s := range t.spans {
		covered[s.Parent] += s.EndNs - s.StartNs
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNs = s.EndNs - s.StartNs - covered[s.ID]
	}
	return t.spans
}

// traceFile is what <out>/trace_<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
	// SelfNsByName sums self time over the spans sharing a name — the
	// "where did the harness's wall time go" table.
	SelfNsByName map[string]int64 `json:"self_ns_by_name"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	tf := traceFile{Workload: workload, Seed: seed, Spans: t.finish(), SelfNsByName: map[string]int64{}}
	for _, s := range tf.Spans {
		tf.SelfNsByName[s.Name] += s.SelfNs
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
