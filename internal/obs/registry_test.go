package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", Labels{"mode": "rmmap", "workflow": "w"})
	b := r.Counter("x_total", Labels{"workflow": "w", "mode": "rmmap"})
	if a != b {
		t.Fatal("same (name, labels) must return the same series regardless of map construction order")
	}
	c := r.Counter("x_total", Labels{"workflow": "w2", "mode": "rmmap"})
	if a == c {
		t.Fatal("different labels must be a different series")
	}
	a.Add(3)
	a.Add(2)
	if got := b.Get(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewRegistry().Counter("x", nil).Add(-1)
}

func TestLabelsWithDoesNotMutate(t *testing.T) {
	base := Labels{"workflow": "w"}
	derived := base.With("category", "fault")
	if _, ok := base["category"]; ok {
		t.Fatal("With mutated the receiver")
	}
	if derived["category"] != "fault" || derived["workflow"] != "w" {
		t.Fatalf("derived labels wrong: %v", derived)
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		// Insert in scrambled order; snapshot must sort.
		r.Counter("z_total", nil).Add(1)
		r.Counter("a_total", Labels{"k": "v2"}).Add(2)
		r.Counter("a_total", Labels{"k": "v1"}).Add(3)
		r.Histogram("h_ns", nil, []float64{10, 100}).Observe(42)
		return r.Snapshot()
	}
	s := build()
	wantOrder := []string{`a_total{k="v1"}`, `a_total{k="v2"}`, "z_total"}
	for i, c := range s.Counters {
		got := c.Name + Labels(c.Labels).encode()
		if got != wantOrder[i] {
			t.Fatalf("counter %d = %s, want %s", i, got, wantOrder[i])
		}
	}
	var one, two bytes.Buffer
	if err := s.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatalf("snapshot JSON not byte-stable:\n%s\nvs\n%s", one.String(), two.String())
	}
}

func TestSnapshotKeepsZeroCounters(t *testing.T) {
	r := NewRegistry()
	r.Counter("rmmap_recovery_reexecutions_total", nil)
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 0 {
		t.Fatalf("zero counter dropped: %+v", s.Counters)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", Labels{"m": "a"}).Add(7)
	h := r.Histogram("lat_ns", nil, []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`x_total{m="a"} 7`,
		`lat_ns_bucket{le="10"} 1`,
		`lat_ns_bucket{le="100"} 2`,
		// The 500 sample overflows the finite bounds; the +Inf bucket must
		// still reach _count or bucket-based quantile math breaks.
		`lat_ns_bucket{le="+Inf"} 3`,
		"lat_ns_count 3",
		"lat_ns_sum 555",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotLabelsIsolated: a snapshot is an export, so mutating its
// label maps must not corrupt the live registry's series metadata.
func TestSnapshotLabelsIsolated(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", Labels{"mode": "rmmap"}).Add(1)
	r.Histogram("h_ns", Labels{"mode": "rmmap"}, []float64{10}).Observe(1)
	s := r.Snapshot()
	if len(s.Counters) != 1 || len(s.Histograms) != 1 {
		t.Fatalf("unexpected snapshot shape: %+v", s)
	}
	s.Counters[0].Labels["mode"] = "mutated"
	s.Histograms[0].Labels["mode"] = "mutated"
	again := r.Snapshot()
	if again.Counters[0].Labels["mode"] != "rmmap" {
		t.Errorf("counter labels corrupted via snapshot: %v", again.Counters[0].Labels)
	}
	if again.Histograms[0].Labels["mode"] != "rmmap" {
		t.Errorf("histogram labels corrupted via snapshot: %v", again.Histograms[0].Labels)
	}
}
