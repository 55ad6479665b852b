package faults

import (
	"errors"
	"fmt"
	"testing"

	"rmmap/internal/memsim"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
)

// fakeTransport counts operations and fails the first failN calls with err.
type fakeTransport struct {
	owner memsim.MachineID
	calls int
	failN int
	err   error
}

func (f *fakeTransport) Owner() memsim.MachineID { return f.owner }

func (f *fakeTransport) op() error {
	f.calls++
	if f.calls <= f.failN {
		return f.err
	}
	return nil
}

func (f *fakeTransport) Read(m *simtime.Meter, target memsim.MachineID, pfn memsim.PFN, off int, buf []byte) error {
	return f.op()
}

func (f *fakeTransport) ReadPages(m *simtime.Meter, target memsim.MachineID, reqs []rdma.PageRead) error {
	return f.op()
}

func (f *fakeTransport) WritePages(m *simtime.Meter, target memsim.MachineID, reqs []rdma.PageWrite) error {
	return f.op()
}

func (f *fakeTransport) Call(m *simtime.Meter, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	return []byte("ok"), f.op()
}

func (f *fakeTransport) ReadPagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []rdma.PageRead) error {
	return f.op()
}

func (f *fakeTransport) WritePagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []rdma.PageWrite) error {
	return f.op()
}

func (f *fakeTransport) CallCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	return []byte("ok"), f.op()
}

func faultPattern(in *Injector, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		if in.Check(SiteRDMARead, 1, 0, "") != nil {
			out += "X"
		} else {
			out += "."
		}
	}
	return out
}

func TestInjectorDeterministicFromSeed(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{{Site: SiteRDMARead, Target: AnyMachine, Prob: 0.3}}}
	a := faultPattern(NewInjector(plan, nil), 200)
	b := faultPattern(NewInjector(plan, nil), 200)
	if a != b {
		t.Fatalf("same seed produced different fault patterns:\n%s\n%s", a, b)
	}
	c := faultPattern(NewInjector(Plan{Seed: 43, Rules: plan.Rules}, nil), 200)
	if a == c {
		t.Fatalf("different seeds produced identical fault patterns")
	}
	// ~30% of 200 draws should fire; allow a generous band.
	fired := 0
	for _, ch := range a {
		if ch == 'X' {
			fired++
		}
	}
	if fired < 30 || fired > 90 {
		t.Fatalf("fired %d/200, want roughly 60", fired)
	}
}

func TestInjectorRuleFilters(t *testing.T) {
	now := simtime.Time(0)
	plan := Plan{Seed: 7, Rules: []Rule{
		{Site: SiteRPC, Target: 2, Endpoint: "rmmap.auth", Prob: 1.0,
			After: 100, Until: 200, Max: 2},
	}}
	in := NewInjector(plan, func() simtime.Time { return now })

	if err := in.Check(SiteRPC, 2, 0, "rmmap.auth"); err != nil {
		t.Fatalf("rule fired outside its window: %v", err)
	}
	now = 150
	if err := in.Check(SiteRPC, 1, 0, "rmmap.auth"); err != nil {
		t.Fatalf("rule fired for wrong target: %v", err)
	}
	if err := in.Check(SiteRPC, 2, 0, "rmmap.dereg"); err != nil {
		t.Fatalf("rule fired for wrong endpoint: %v", err)
	}
	if err := in.Check(SiteRDMARead, 2, 0, ""); err != nil {
		t.Fatalf("rule fired for wrong site: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := in.Check(SiteRPC, 2, 0, "rmmap.auth"); !IsTransient(err) {
			t.Fatalf("matching check %d: want injected fault, got %v", i, err)
		}
	}
	if err := in.Check(SiteRPC, 2, 0, "rmmap.auth"); err != nil {
		t.Fatalf("rule exceeded Max=2: %v", err)
	}
	now = 250
	if in.Injected(SiteRPC) != 2 || in.Total() != 2 {
		t.Fatalf("counts: site=%d total=%d, want 2/2", in.Injected(SiteRPC), in.Total())
	}
}

func TestRetryTransportBackoffAndCharges(t *testing.T) {
	inner := &fakeTransport{owner: 0, failN: 2, err: fmt.Errorf("op: %w", ErrInjected)}
	pol := RetryPolicy{MaxAttempts: 4, BaseBackoff: 20 * simtime.Microsecond, MaxBackoff: simtime.Millisecond}
	rt := WithRetry(inner, pol)
	m := simtime.NewMeter()
	if err := rt.Read(m, 1, 0, 0, make([]byte, 8)); err != nil {
		t.Fatalf("retry should have recovered: %v", err)
	}
	if rt.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", rt.Retries())
	}
	// Two retries: 20 µs + 40 µs of backoff, charged to CatRetry.
	if got, want := m.Get(simtime.CatRetry), 60*simtime.Microsecond; got != want {
		t.Fatalf("CatRetry charge = %v, want %v", got, want)
	}
}

func TestRetryTransportGivesUpAfterMaxAttempts(t *testing.T) {
	inner := &fakeTransport{owner: 0, failN: 100, err: fmt.Errorf("op: %w", ErrInjected)}
	rt := WithRetry(inner, RetryPolicy{MaxAttempts: 3, BaseBackoff: simtime.Microsecond, MaxBackoff: simtime.Microsecond})
	m := simtime.NewMeter()
	err := rt.Read(m, 1, 0, 0, make([]byte, 8))
	if !IsTransient(err) {
		t.Fatalf("want the transient error surfaced, got %v", err)
	}
	if inner.calls != 3 {
		t.Fatalf("inner calls = %d, want exactly MaxAttempts=3", inner.calls)
	}
}

func TestRetryTransportPassesNonTransientThrough(t *testing.T) {
	permanent := errors.New("auth failed")
	inner := &fakeTransport{owner: 0, failN: 100, err: permanent}
	rt := WithRetry(inner, RetryPolicy{MaxAttempts: 5, BaseBackoff: simtime.Microsecond, MaxBackoff: simtime.Microsecond})
	m := simtime.NewMeter()
	if _, err := rt.Call(m, 1, "ep", nil); !errors.Is(err, permanent) {
		t.Fatalf("want permanent error, got %v", err)
	}
	if inner.calls != 1 {
		t.Fatalf("non-transient error was retried: %d calls", inner.calls)
	}
	if m.Get(simtime.CatRetry) != 0 {
		t.Fatalf("backoff charged for a non-retried error")
	}
}

func TestFaultFabricInjectsOnWrappedNIC(t *testing.T) {
	cm := simtime.DefaultCostModel()
	fabric := rdma.NewSimFabric(cm)
	m0 := memsim.NewMachine(0)
	m1 := memsim.NewMachine(1)
	fabric.Attach(m0)
	fabric.Attach(m1)
	pfn := m1.AllocFrame()
	m1.WriteFrame(pfn, 0, []byte("hello"))

	in := NewInjector(Plan{Seed: 1, Rules: []Rule{
		{Site: SiteRDMARead, Target: AnyMachine, Prob: 1.0, Max: 1},
	}}, nil)
	ft := Wrap(rdma.NewNIC(0, fabric), in)

	buf := make([]byte, 5)
	meter := simtime.NewMeter()
	if err := ft.Read(meter, 1, pfn, 0, buf); !IsTransient(err) {
		t.Fatalf("first read should hit the injected fault, got %v", err)
	}
	if err := ft.Read(meter, 1, pfn, 0, buf); err != nil {
		t.Fatalf("second read (rule Max exhausted) failed: %v", err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read %q, want %q", buf, "hello")
	}
	// Local operations are never injected.
	local := m0.AllocFrame()
	for i := 0; i < 50; i++ {
		if err := ft.Read(meter, 0, local, 0, buf); err != nil {
			t.Fatalf("local read injected: %v", err)
		}
	}
}

func TestFaultFabricDialFaultLeavesPeerUncontacted(t *testing.T) {
	inner := &fakeTransport{owner: 0}
	in := NewInjector(Plan{Seed: 9, Rules: []Rule{
		{Site: SiteTCPDial, Target: AnyMachine, Prob: 1.0, Max: 1},
	}}, nil)
	ft := Wrap(inner, in)
	m := simtime.NewMeter()
	if err := ft.Read(m, 1, 0, 0, nil); !IsTransient(err) {
		t.Fatalf("dial fault not injected: %v", err)
	}
	if inner.calls != 0 {
		t.Fatalf("inner transport reached despite dial fault")
	}
	// The failed dial must not mark the peer contacted; the retry redials
	// (and succeeds, the rule being exhausted).
	if err := ft.Read(m, 1, 0, 0, nil); err != nil {
		t.Fatalf("redial failed: %v", err)
	}
}

// TestRetryFastFailsOnCrashedMachine: an operation aimed at a machine the
// plan has already crashed must fail immediately with ErrMachineCrashed —
// no attempts against the dead peer, no backoff budget burned on CatRetry,
// and no injector PRNG draws consumed (crash checks are draw-free, so the
// downstream fault sequence is unchanged).
func TestRetryFastFailsOnCrashedMachine(t *testing.T) {
	plan := Plan{
		Seed:    42,
		Rules:   []Rule{{Site: SiteRDMARead, Target: AnyMachine, Prob: 1.0}},
		Crashes: []Crash{{Machine: 1, At: 0}},
	}
	in := NewInjector(plan, nil)
	inner := &fakeTransport{owner: 0}
	rt := WithRetry(Wrap(inner, in), RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * simtime.Microsecond})
	m := simtime.NewMeter()

	for i := 0; i < 5; i++ {
		if err := rt.Read(m, 1, 0, 0, nil); !errors.Is(err, memsim.ErrMachineCrashed) {
			t.Fatalf("read of crashed machine: %v", err)
		}
	}
	if inner.calls != 0 {
		t.Fatalf("crashed-machine reads reached the inner transport %d times", inner.calls)
	}
	if rt.Retries() != 0 {
		t.Fatalf("retried a permanently crashed machine %d times", rt.Retries())
	}
	if got := m.Get(simtime.CatRetry); got != 0 {
		t.Fatalf("burned %v of backoff budget on a crashed machine", got)
	}
	if in.Total() != 0 {
		t.Fatalf("crash fast-fail fired %d injected faults", in.Total())
	}
	// The prob-1.0 rule never drew: the injector's future fault sequence is
	// identical to a fresh injector's.
	if got, want := faultPattern(in, 50), faultPattern(NewInjector(plan, nil), 50); got != want {
		t.Fatalf("crash checks consumed PRNG draws:\n got %s\nwant %s", got, want)
	}
}
