package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels qualifies a metric series (workflow, mode, function, category…).
// A nil map is the empty label set.
type Labels map[string]string

// encode renders labels in prometheus exposition style with sorted keys:
// {k1="v1",k2="v2"}. The empty set encodes as "".
func (l Labels) encode() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// With returns a copy of l with k=v added (l is not mutated).
func (l Labels) With(k, v string) Labels {
	out := l.clone()
	if out == nil {
		out = make(Labels, 1)
	}
	out[k] = v
	return out
}

// clone copies the label set so callers can reuse their map.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Counter is a monotonically non-decreasing tally, safe for concurrent use.
type Counter struct {
	value atomic.Int64
}

// Add increments the counter. Negative increments panic: counters share the
// Meter's "physically meaningful" invariant.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("obs: negative counter increment %d", n))
	}
	c.value.Add(n)
}

// Get returns the current value.
func (c *Counter) Get() int64 { return c.value.Load() }

// Registry holds one run's (or one report's) metric series. It is safe for
// concurrent use — series lookup, updates through the returned handles, and
// Snapshot may race freely (the parallel engine's workers record from many
// goroutines) — but determinism of the recorded values is the caller's
// contract: the engine only publishes at canonical commit points. Series
// identity is (name, labels); repeated lookups return the same instance.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	// order remembers first-registration keys so Snapshot can detect
	// duplicates cheaply; output order is always sorted, not insertion.
	names map[string]seriesMeta
}

type seriesMeta struct {
	name   string
	labels Labels
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		names:    make(map[string]seriesMeta),
	}
}

// Counter returns the counter series for (name, labels), creating it at 0.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	key := name + labels.encode()
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c
	}
	c := &Counter{}
	r.counters[key] = c
	r.names[key] = seriesMeta{name: name, labels: labels.clone()}
	return c
}

// Histogram returns the histogram series for (name, labels), creating it
// with the given bucket upper bounds (see NewHistogram). Bounds are only
// consulted on creation; later lookups reuse the existing series.
func (r *Registry) Histogram(name string, labels Labels, bounds []float64) *Histogram {
	key := name + labels.encode()
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[key]; ok {
		return h
	}
	h := NewHistogram(bounds)
	r.hists[key] = h
	r.names[key] = seriesMeta{name: name, labels: labels.clone()}
	return h
}

// CounterPoint is one counter series in a snapshot.
type CounterPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// HistogramPoint is one histogram series in a snapshot. Bounds holds the
// finite bucket upper bounds; Counts has len(Bounds)+1 entries, the last
// being the overflow bucket.
type HistogramPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Bounds []float64         `json:"bounds"`
	Counts []int64           `json:"counts"`
	Count  int64             `json:"count"`
	Sum    float64           `json:"sum"`
}

// Snapshot is a registry's deterministic point-in-time export: series
// sorted by (name, encoded labels).
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// Snapshot exports the registry. Zero-valued counters are kept: a metric
// that exists at 0 (e.g. reexecutions on a clean run) is information.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	keys := make([]string, 0, len(r.counters))
	for k := range r.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := r.names[k]
		s.Counters = append(s.Counters, CounterPoint{
			Name: m.name, Labels: m.labels.clone(), Value: r.counters[k].Get(),
		})
	}
	keys = keys[:0]
	for k := range r.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := r.names[k]
		p := r.hists[k].point()
		p.Name, p.Labels = m.name, m.labels.clone()
		s.Histograms = append(s.Histograms, p)
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON. Output is byte-stable:
// slices are pre-sorted and encoding/json marshals map keys sorted.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText writes the snapshot in prometheus exposition style, one series
// per line, sorted — the human-greppable form.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", c.Name, Labels(c.Labels).encode(), c.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		bucketLine := func(le string, cum int64) error {
			l := Labels(h.Labels).clone()
			if l == nil {
				l = Labels{}
			}
			l["le"] = le
			_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, l.encode(), cum)
			return err
		}
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			if err := bucketLine(formatBound(b), cum); err != nil {
				return err
			}
		}
		// The +Inf bucket closes the series: prometheus convention requires
		// the last cumulative bucket to equal _count even when samples
		// overflow the finite bounds.
		if len(h.Counts) > len(h.Bounds) {
			cum += h.Counts[len(h.Bounds)]
		}
		if err := bucketLine("+Inf", cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", h.Name, Labels(h.Labels).encode(), h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", h.Name, Labels(h.Labels).encode(), h.Sum); err != nil {
			return err
		}
	}
	return nil
}

func formatBound(b float64) string {
	if b == float64(int64(b)) {
		return fmt.Sprintf("%d", int64(b))
	}
	return fmt.Sprintf("%g", b)
}
