package load

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rmmap/internal/simtime"
)

func TestPoissonDeterministic(t *testing.T) {
	spec := PoissonSpec{
		Rate:     200,
		Horizon:  time1s(),
		Tenants:  16,
		Deadline: 5 * simtime.Millisecond,
		Seed:     42,
	}
	a := Poisson(spec)
	b := Poisson(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec+seed produced different schedules")
	}
	if len(a) < 100 || len(a) > 400 {
		t.Fatalf("rate 200 over 1s produced %d arrivals", len(a))
	}
	last := simtime.Time(0)
	for i, ev := range a {
		if ev.At < last {
			t.Fatalf("event %d out of order: %d < %d", i, ev.At, last)
		}
		last = ev.At
		if simtime.Duration(ev.At) >= spec.Horizon {
			t.Fatalf("event %d at %d past horizon", i, ev.At)
		}
		if !strings.HasPrefix(ev.Tenant, "t") {
			t.Fatalf("event %d tenant %q", i, ev.Tenant)
		}
		if ev.Deadline != spec.Deadline {
			t.Fatalf("event %d deadline %d", i, ev.Deadline)
		}
	}
	spec.Seed = 43
	c := Poisson(spec)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if Poisson(PoissonSpec{}) != nil {
		t.Fatal("zero spec should produce no events")
	}
}

func TestBurstyShape(t *testing.T) {
	spec := BurstSpec{
		BaseRate:   50,
		BurstRate:  1000,
		BurstEvery: 500 * simtime.Millisecond,
		BurstLen:   100 * simtime.Millisecond,
		Horizon:    2 * simtime.Second,
		Tenants:    8,
		Seed:       7,
	}
	a := Bursty(spec)
	if !reflect.DeepEqual(a, Bursty(spec)) {
		t.Fatal("bursty schedule not deterministic")
	}
	in, out := 0, 0
	for _, ev := range a {
		if simtime.Duration(ev.At)%spec.BurstEvery < spec.BurstLen {
			in++
		} else {
			out++
		}
	}
	// Burst windows cover 1/5 of the horizon at 20x the rate: the windows
	// must hold the clear majority of arrivals.
	if in <= out {
		t.Fatalf("burst windows got %d arrivals, steady state %d", in, out)
	}

	// BurstRate below BaseRate is floored to BaseRate: plain Poisson.
	flat := BurstSpec{BaseRate: 100, BurstRate: 1, BurstEvery: spec.BurstEvery,
		BurstLen: spec.BurstLen, Horizon: simtime.Second, Seed: 9}
	ref := flat
	ref.BurstRate = flat.BaseRate
	if !reflect.DeepEqual(Bursty(flat), Bursty(ref)) {
		t.Fatal("BurstRate < BaseRate not floored")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	events := Poisson(PoissonSpec{Rate: 300, Horizon: 200 * simtime.Millisecond,
		Tenants: 5, Deadline: simtime.Millisecond, Seed: 11})
	var buf bytes.Buffer
	if err := WriteEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatal("trace round-trip changed events")
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := SaveTrace(path, events); err != nil {
		t.Fatal(err)
	}
	got, err = LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatal("file round-trip changed events")
	}
}

func TestReadEventsRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"bad json", "{\"at_ns\":1,\"tenant\":\"a\"}\n{not json}\n", "line 2"},
		{"negative at", "{\"at_ns\":-5,\"tenant\":\"a\"}\n", "line 1: negative arrival"},
		{"negative deadline", "{\"at_ns\":5,\"tenant\":\"a\",\"deadline_ns\":-1}\n", "line 1: negative deadline"},
		{"missing tenant", "{\"at_ns\":5}\n", "line 1: missing tenant"},
		{"out of order", "{\"at_ns\":10,\"tenant\":\"a\"}\n{\"at_ns\":4,\"tenant\":\"b\"}\n", "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEvents(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("malformed trace accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// Blank lines are skipped, not errors.
	events, err := ReadEvents(strings.NewReader("\n{\"at_ns\":1,\"tenant\":\"a\"}\n\n"))
	if err != nil || len(events) != 1 {
		t.Fatalf("blank lines: events=%d err=%v", len(events), err)
	}
}

func TestWorkflowNames(t *testing.T) {
	for _, name := range []string{"finra", "ml-training", "ml-prediction", "wordcount"} {
		for _, small := range []bool{false, true} {
			wf, err := Workflow(name, small)
			if err != nil || wf == nil {
				t.Fatalf("Workflow(%q, %v): %v", name, small, err)
			}
		}
	}
	if _, err := Workflow("nope", false); err == nil {
		t.Fatal("unknown workflow accepted")
	}
}

func TestTenantName(t *testing.T) {
	if TenantName(0) != "t0000" || TenantName(42) != "t0042" {
		t.Fatalf("TenantName: %q %q", TenantName(0), TenantName(42))
	}
}

func time1s() simtime.Duration { return simtime.Second }

// TestGeneratorsRejectDegenerateRates: a rate that is not finite and
// positive, or whose gap rounds under 1 ns, yields no events instead of a
// schedule that never advances.
func TestGeneratorsRejectDegenerateRates(t *testing.T) {
	h := 10 * simtime.Millisecond
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e12, 0, -5} {
		for name, events := range map[string][]Event{
			"periodic":   Periodic(rate, h),
			"poisson":    Poisson(PoissonSpec{Rate: rate, Horizon: h}),
			"bursty":     Bursty(BurstSpec{BaseRate: rate, Horizon: h}),
			"burst-rate": Bursty(BurstSpec{BaseRate: 100, BurstRate: rate, BurstEvery: h, BurstLen: h / 2, Horizon: h}),
		} {
			// A burst rate under the base rate is floored to it: still valid.
			if name == "burst-rate" && rate < 100 {
				continue
			}
			if events != nil {
				t.Errorf("%s at rate %v: %d events, want none", name, rate, len(events))
			}
		}
	}
	if got := Periodic(1000, h); len(got) != 10 || got[9].At != simtime.Time(9*simtime.Millisecond) {
		t.Errorf("Periodic(1000, 10ms) = %v", got)
	}
}
