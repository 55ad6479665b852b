package faults

import (
	"fmt"

	"rmmap/internal/memsim"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
)

// FaultFabric wraps an rdma.Transport and consults an Injector before every
// operation, so SimFabric and TCPFabric NICs gain fault injection without
// modification. Remote operations to a previously uncontacted machine also
// pass the SiteTCPDial gate (connection establishment), and every remote
// operation passes SiteTCPRoundtrip before its op-specific site.
type FaultFabric struct {
	inner     rdma.Transport
	inj       *Injector
	contacted map[memsim.MachineID]bool
}

// Wrap returns t with fault injection from inj applied in front of every
// remote operation.
func Wrap(t rdma.Transport, inj *Injector) *FaultFabric {
	return &FaultFabric{inner: t, inj: inj, contacted: make(map[memsim.MachineID]bool)}
}

// Owner implements rdma.Transport.
func (f *FaultFabric) Owner() memsim.MachineID { return f.inner.Owner() }

// gate runs the connection-level checks shared by every remote operation.
// A dial fault leaves the target uncontacted, so the next attempt redials.
//
// Order matters: the deterministic checks (crash schedule, partition
// windows) run before any probabilistic rule so that (a) operations
// against a permanently dead machine fail fast with the terminal
// ErrMachineCrashed instead of burning the retry budget on injected
// transients that can never clear, and (b) neither check perturbs the
// PRNG draw sequence of the probabilistic rules.
func (f *FaultFabric) gate(target memsim.MachineID) error {
	if target == f.inner.Owner() {
		return nil
	}
	if f.inj.CrashedNow(target) {
		return fmt.Errorf("faults: operation against crashed machine %d: %w",
			target, memsim.ErrMachineCrashed)
	}
	if err := f.inj.CheckPartition(f.inner.Owner(), target); err != nil {
		return err
	}
	if !f.contacted[target] {
		if err := f.inj.Check(SiteTCPDial, target, f.inner.Owner(), ""); err != nil {
			return err
		}
		f.contacted[target] = true
	}
	return f.inj.Check(SiteTCPRoundtrip, target, f.inner.Owner(), "")
}

// Read implements rdma.Transport.
func (f *FaultFabric) Read(m *simtime.Meter, target memsim.MachineID, pfn memsim.PFN, off int, buf []byte) error {
	if err := f.gate(target); err != nil {
		return err
	}
	if target != f.inner.Owner() {
		if err := f.inj.Check(SiteRDMARead, target, f.inner.Owner(), ""); err != nil {
			return err
		}
	}
	return f.inner.Read(m, target, pfn, off, buf)
}

// ReadPages implements rdma.Transport.
func (f *FaultFabric) ReadPages(m *simtime.Meter, target memsim.MachineID, reqs []rdma.PageRead) error {
	return f.ReadPagesCat(m, simtime.CatFault, target, reqs)
}

// ReadPagesCat implements rdma.Transport.
func (f *FaultFabric) ReadPagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []rdma.PageRead) error {
	if err := f.gate(target); err != nil {
		return err
	}
	if target != f.inner.Owner() {
		if err := f.inj.Check(SiteDoorbell, target, f.inner.Owner(), ""); err != nil {
			return err
		}
	}
	return f.inner.ReadPagesCat(m, cat, target, reqs)
}

// WritePages implements rdma.Transport.
func (f *FaultFabric) WritePages(m *simtime.Meter, target memsim.MachineID, reqs []rdma.PageWrite) error {
	return f.WritePagesCat(m, simtime.CatReplicate, target, reqs)
}

// WritePagesCat implements rdma.Transport.
func (f *FaultFabric) WritePagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []rdma.PageWrite) error {
	if err := f.gate(target); err != nil {
		return err
	}
	if target != f.inner.Owner() {
		if err := f.inj.Check(SiteRDMAWrite, target, f.inner.Owner(), ""); err != nil {
			return err
		}
	}
	return f.inner.WritePagesCat(m, cat, target, reqs)
}

// Call implements rdma.Transport.
func (f *FaultFabric) Call(m *simtime.Meter, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	return f.CallCat(m, simtime.CatMap, target, endpoint, req)
}

// CallCat implements rdma.Transport.
func (f *FaultFabric) CallCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	if err := f.gate(target); err != nil {
		return nil, err
	}
	if target != f.inner.Owner() {
		if err := f.inj.Check(SiteRPC, target, f.inner.Owner(), endpoint); err != nil {
			return nil, err
		}
	}
	return f.inner.CallCat(m, cat, target, endpoint, req)
}

// RetryPolicy caps the retry loop of a RetryTransport.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation (≥ 1).
	MaxAttempts int
	// BaseBackoff is the virtual-time wait before the first retry; it
	// doubles each retry, capped at MaxBackoff.
	BaseBackoff simtime.Duration
	// MaxBackoff caps the per-retry backoff.
	MaxBackoff simtime.Duration
}

// DefaultRetryPolicy is the policy used by the chaos experiments: up to 4
// attempts with 20 µs → 1 ms exponential backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 20 * simtime.Microsecond,
		MaxBackoff:  simtime.Millisecond,
	}
}

func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 20 * simtime.Microsecond
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	return p
}

// RetryTransport retries transient faults (IsTransient) with capped
// exponential backoff, charging the waits to simtime.CatRetry so recovery
// cost appears in every meter breakdown. Non-transient errors — machine
// crashes, auth failures — pass through immediately: retrying them cannot
// help, and the platform's ladder (degradation, re-execution) must take
// over.
type RetryTransport struct {
	inner   rdma.Transport
	policy  RetryPolicy
	retries int
}

// WithRetry wraps t in a retry layer under policy.
func WithRetry(t rdma.Transport, policy RetryPolicy) *RetryTransport {
	return &RetryTransport{inner: t, policy: policy.normalized()}
}

// Retries reports the cumulative number of retried attempts. The platform
// snapshots it around each invocation to attribute retries per request
// (valid because every retry an invocation causes flows through its own
// machine's transport, which that invocation's batch group owns exclusively
// during a worker phase).
func (r *RetryTransport) Retries() int { return r.retries }

// do runs op under the retry policy, charging backoff to m.
func (r *RetryTransport) do(m *simtime.Meter, op func() error) error {
	backoff := r.policy.BaseBackoff
	var err error
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			m.Charge(simtime.CatRetry, backoff)
			backoff *= 2
			if backoff > r.policy.MaxBackoff {
				backoff = r.policy.MaxBackoff
			}
			r.retries++
		}
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
	}
	return err
}

// Owner implements rdma.Transport.
func (r *RetryTransport) Owner() memsim.MachineID { return r.inner.Owner() }

// Read implements rdma.Transport.
func (r *RetryTransport) Read(m *simtime.Meter, target memsim.MachineID, pfn memsim.PFN, off int, buf []byte) error {
	return r.do(m, func() error { return r.inner.Read(m, target, pfn, off, buf) })
}

// ReadPages implements rdma.Transport.
func (r *RetryTransport) ReadPages(m *simtime.Meter, target memsim.MachineID, reqs []rdma.PageRead) error {
	return r.ReadPagesCat(m, simtime.CatFault, target, reqs)
}

// ReadPagesCat implements rdma.Transport.
func (r *RetryTransport) ReadPagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []rdma.PageRead) error {
	return r.do(m, func() error { return r.inner.ReadPagesCat(m, cat, target, reqs) })
}

// WritePages implements rdma.Transport.
func (r *RetryTransport) WritePages(m *simtime.Meter, target memsim.MachineID, reqs []rdma.PageWrite) error {
	return r.WritePagesCat(m, simtime.CatReplicate, target, reqs)
}

// WritePagesCat implements rdma.Transport.
func (r *RetryTransport) WritePagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []rdma.PageWrite) error {
	return r.do(m, func() error { return r.inner.WritePagesCat(m, cat, target, reqs) })
}

// Call implements rdma.Transport.
func (r *RetryTransport) Call(m *simtime.Meter, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	return r.CallCat(m, simtime.CatMap, target, endpoint, req)
}

// CallCat implements rdma.Transport.
func (r *RetryTransport) CallCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	var resp []byte
	err := r.do(m, func() error {
		var e error
		resp, e = r.inner.CallCat(m, cat, target, endpoint, req)
		return e
	})
	return resp, err
}
