package rdma

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// ConnectMode selects the QP-establishment path. The paper's kernel-space
// QPs (KRCore) connect in ~10 µs; user-space verbs need ~10 ms. The
// abl-conn ablation flips this.
type ConnectMode int

const (
	// ConnectKernel is the KRCore fast path (default).
	ConnectKernel ConnectMode = iota
	// ConnectUser is the slow user-space verbs path.
	ConnectUser
)

// PageRead names one page-sized read within a doorbell batch.
type PageRead struct {
	PFN memsim.PFN
	Buf []byte // destination, at most one page
}

// PageWrite names one page-sized write within a doorbell batch.
type PageWrite struct {
	PFN  memsim.PFN
	Data []byte // source, at most one page
}

// Handler serves an RPC endpoint. It may charge the caller's meter to model
// remote CPU time that sits on the caller's critical path.
type Handler func(m *simtime.Meter, req []byte) ([]byte, error)

// Transport is the per-machine NIC view the RMMAP kernel uses.
type Transport interface {
	// Owner is the machine this NIC belongs to.
	Owner() memsim.MachineID
	// Read performs a one-sided read of [off, off+len(buf)) within a
	// remote physical frame.
	Read(m *simtime.Meter, target memsim.MachineID, pfn memsim.PFN, off int, buf []byte) error
	// ReadPages performs a doorbell-batched read of several remote frames
	// in one fabric roundtrip.
	ReadPages(m *simtime.Meter, target memsim.MachineID, reqs []PageRead) error
	// WritePages performs a doorbell-batched one-sided write of several
	// remote frames in one fabric roundtrip (the replication push path).
	WritePages(m *simtime.Meter, target memsim.MachineID, reqs []PageWrite) error
	// Call performs an RPC to a named endpoint on the target machine.
	Call(m *simtime.Meter, target memsim.MachineID, endpoint string, req []byte) ([]byte, error)

	// ReadPagesCat, WritePagesCat and CallCat are the same operations with
	// the fabric charge attributed to cat instead of the default category
	// (CatFault, CatReplicate, CatMap). Wrappers must forward cat unchanged.
	ReadPagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []PageRead) error
	WritePagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []PageWrite) error
	CallCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, endpoint string, req []byte) ([]byte, error)
}

// Errors.
var (
	ErrNoMachine  = errors.New("rdma: unknown target machine")
	ErrNoEndpoint = errors.New("rdma: unknown RPC endpoint")
)

// SimFabric is the cluster interconnect: a registry of machines and their
// RPC endpoints. Create one per simulated cluster, then a NIC per machine.
//
// The registries are copy-on-write maps republished through atomic
// pointers: Attach/HandleFunc happen at cluster-build time, while lookups
// sit on every fault's critical path from every worker goroutine — a
// mutexed map here was the fabric-side convoy point. Telemetry counters
// are plain atomics for the same reason (DESIGN.md §12).
type SimFabric struct {
	mu       sync.Mutex // serializes registry rebuilds only
	cm       *simtime.CostModel
	machines atomic.Pointer[map[memsim.MachineID]*memsim.Machine]
	handlers atomic.Pointer[map[memsim.MachineID]map[string]Handler]

	// Telemetry for the factor analysis and ablations.
	reads      atomic.Int64
	batchReads atomic.Int64
	batchPages atomic.Int64
	rpcs       atomic.Int64
	bytesRead  atomic.Int64
}

// NewSimFabric returns an empty fabric charging from cm.
func NewSimFabric(cm *simtime.CostModel) *SimFabric {
	f := &SimFabric{cm: cm}
	machines := make(map[memsim.MachineID]*memsim.Machine)
	handlers := make(map[memsim.MachineID]map[string]Handler)
	f.machines.Store(&machines)
	f.handlers.Store(&handlers)
	return f
}

// Attach registers a machine on the fabric.
func (f *SimFabric) Attach(m *memsim.Machine) {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.machines.Load()
	next := make(map[memsim.MachineID]*memsim.Machine, len(old)+1)
	for id, mach := range old {
		next[id] = mach
	}
	next[m.ID()] = m
	f.machines.Store(&next)
}

// HandleFunc registers an RPC endpoint served by machine id.
func (f *SimFabric) HandleFunc(id memsim.MachineID, endpoint string, h Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.handlers.Load()
	next := make(map[memsim.MachineID]map[string]Handler, len(old)+1)
	for mid, eps := range old {
		next[mid] = eps
	}
	eps := make(map[string]Handler, len(next[id])+1)
	for name, old := range next[id] {
		eps[name] = old
	}
	eps[endpoint] = h
	next[id] = eps
	f.handlers.Store(&next)
}

// Stats reports cumulative fabric activity: one-sided reads, doorbell
// batches, RPCs, and total bytes read.
func (f *SimFabric) Stats() (reads, batches, rpcs int, bytesRead int64) {
	return int(f.reads.Load()), int(f.batchReads.Load()), int(f.rpcs.Load()), f.bytesRead.Load()
}

// BatchPages reports the cumulative number of pages carried inside
// doorbell batches — reads+BatchPages is the fabric's total page count.
func (f *SimFabric) BatchPages() int { return int(f.batchPages.Load()) }

// ResetStats zeroes the telemetry counters.
func (f *SimFabric) ResetStats() {
	f.reads.Store(0)
	f.batchReads.Store(0)
	f.batchPages.Store(0)
	f.rpcs.Store(0)
	f.bytesRead.Store(0)
}

func (f *SimFabric) machine(id memsim.MachineID) (*memsim.Machine, error) {
	m, ok := (*f.machines.Load())[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoMachine, id)
	}
	return m, nil
}

// readBase is the fixed one-sided READ cost excluding line-rate bytes,
// derived so that a full 4 KB page costs exactly RDMAPageRead.
func readBase(cm *simtime.CostModel) simtime.Duration {
	base := cm.RDMAPageRead - simtime.Bytes(memsim.PageSize, cm.RDMAPerByte)
	if base < 0 {
		base = 0
	}
	return base
}

// NIC is one machine's fabric client. It caches connections: the first
// operation to a previously uncontacted machine pays the QP-establishment
// cost for its ConnectMode.
type NIC struct {
	owner  memsim.MachineID
	fabric *SimFabric
	Mode   ConnectMode
	conns  map[memsim.MachineID]bool
}

// NewNIC returns a NIC for machine owner on fabric f.
func NewNIC(owner memsim.MachineID, f *SimFabric) *NIC {
	return &NIC{owner: owner, fabric: f, conns: make(map[memsim.MachineID]bool)}
}

// Owner implements Transport.
func (n *NIC) Owner() memsim.MachineID { return n.owner }

// Connections reports how many distinct peers this NIC has connected to.
func (n *NIC) Connections() int { return len(n.conns) }

func (n *NIC) connect(m *simtime.Meter, target memsim.MachineID) {
	if target == n.owner || n.conns[target] {
		return
	}
	n.conns[target] = true
	cost := n.fabric.cm.RDMAConnectKernel
	if n.Mode == ConnectUser {
		cost = n.fabric.cm.RDMAConnectUser
	}
	m.Charge(simtime.CatMap, cost)
}

// Read implements Transport. Local reads skip the fabric (and its costs).
func (n *NIC) Read(m *simtime.Meter, target memsim.MachineID, pfn memsim.PFN, off int, buf []byte) error {
	mach, err := n.fabric.machine(target)
	if err != nil {
		return err
	}
	if target != n.owner {
		n.connect(m, target)
		cm := n.fabric.cm
		m.Charge(simtime.CatFault, readBase(cm)+simtime.Bytes(len(buf), cm.RDMAPerByte))
		n.fabric.reads.Add(1)
		n.fabric.bytesRead.Add(int64(len(buf)))
		// Remote reads go through the checked path so a crashed target
		// surfaces as an error instead of silently serving stale bytes.
		return mach.ReadFrameErr(pfn, off, buf)
	}
	mach.ReadFrame(pfn, off, buf)
	return nil
}

// ReadPages implements Transport: one doorbell-batched roundtrip reading
// many pages (§4.4). Cost: DoorbellBase + per-page NIC processing +
// line-rate bytes — the reason batched prefetch beats per-fault reads.
func (n *NIC) ReadPages(m *simtime.Meter, target memsim.MachineID, reqs []PageRead) error {
	return n.ReadPagesCat(m, simtime.CatFault, target, reqs)
}

// ReadPagesCat is ReadPages with an explicit charge category; the kernel's
// fault-coalescing readahead attributes its batches to CatReadahead.
func (n *NIC) ReadPagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []PageRead) error {
	if len(reqs) == 0 {
		return nil
	}
	mach, err := n.fabric.machine(target)
	if err != nil {
		return err
	}
	total := 0
	for _, r := range reqs {
		total += len(r.Buf)
	}
	if target != n.owner {
		n.connect(m, target)
		cm := n.fabric.cm
		m.Charge(cat,
			cm.DoorbellBase+
				simtime.Scale(cm.DoorbellPerPage, len(reqs))+
				simtime.Bytes(total, cm.RDMAPerByte))
		n.fabric.batchReads.Add(1)
		n.fabric.batchPages.Add(int64(len(reqs)))
		n.fabric.bytesRead.Add(int64(total))
	}
	for _, r := range reqs {
		if len(r.Buf) > memsim.PageSize {
			return fmt.Errorf("rdma: batch entry exceeds page size: %d", len(r.Buf))
		}
		if target != n.owner {
			if err := mach.ReadFrameErr(r.PFN, 0, r.Buf); err != nil {
				return err
			}
		} else {
			mach.ReadFrame(r.PFN, 0, r.Buf)
		}
	}
	return nil
}

// WritePages implements Transport: one doorbell-batched roundtrip pushing
// many pages — the one-sided replication path. Like reads, writes bypass
// the remote CPU; a crashed target rejects the bytes at the frame table.
func (n *NIC) WritePages(m *simtime.Meter, target memsim.MachineID, reqs []PageWrite) error {
	return n.WritePagesCat(m, simtime.CatReplicate, target, reqs)
}

// WritePagesCat is WritePages with an explicit charge category.
func (n *NIC) WritePagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []PageWrite) error {
	if len(reqs) == 0 {
		return nil
	}
	mach, err := n.fabric.machine(target)
	if err != nil {
		return err
	}
	total := 0
	for _, r := range reqs {
		total += len(r.Data)
	}
	if target != n.owner {
		n.connect(m, target)
		cm := n.fabric.cm
		base := cm.RDMAPageWrite - simtime.Bytes(memsim.PageSize, cm.RDMAPerByte)
		if base < 0 {
			base = 0
		}
		m.Charge(cat,
			base+
				simtime.Scale(cm.DoorbellPerPage, len(reqs))+
				simtime.Bytes(total, cm.RDMAPerByte))
	}
	for _, r := range reqs {
		if len(r.Data) > memsim.PageSize {
			return fmt.Errorf("rdma: write batch entry exceeds page size: %d", len(r.Data))
		}
		if target != n.owner {
			if err := mach.WriteFrameErr(r.PFN, 0, r.Data); err != nil {
				return err
			}
		} else {
			mach.WriteFrame(r.PFN, 0, r.Data)
		}
	}
	return nil
}

// Call implements Transport: a Fasst-style RPC roundtrip on the fabric,
// charged to the map category (rmap's auth/page-table RPC).
func (n *NIC) Call(m *simtime.Meter, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	return n.CallCat(m, simtime.CatMap, target, endpoint, req)
}

// CallCat is Call with an explicit charge category; the RPC-paging
// ablation (Fig 15) routes page fetches through it under CatFault.
func (n *NIC) CallCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	if target != n.owner {
		if mach, err := n.fabric.machine(target); err == nil && mach.Crashed() {
			return nil, fmt.Errorf("rdma: rpc %q to machine %d: %w",
				endpoint, target, memsim.ErrMachineCrashed)
		}
	}
	h := (*n.fabric.handlers.Load())[target][endpoint]
	n.fabric.rpcs.Add(1)
	if h == nil {
		return nil, fmt.Errorf("%w: machine %d %q", ErrNoEndpoint, target, endpoint)
	}
	if target != n.owner {
		n.connect(m, target)
	}
	cm := n.fabric.cm
	m.Charge(cat, cm.RPCBase+simtime.Bytes(len(req), cm.RPCPerByte))
	resp, err := h(m, req)
	if err != nil {
		return nil, err
	}
	m.Charge(cat, simtime.Bytes(len(resp), cm.RPCPerByte))
	return resp, nil
}
