package kernel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"rmmap/internal/memsim"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
	"rmmap/internal/wire"
)

// FuncID identifies the registering function instance.
type FuncID uint64

// Key is the registration secret used for authentication.
type Key uint64

// AuthEndpoint is the RPC endpoint name kernels serve for rmap
// authentication and page-table fetch.
const AuthEndpoint = "rmmap.auth"

// DeregEndpoint is the RPC endpoint the serverless framework calls to
// reclaim registered memory on a remote machine (§4.2).
const DeregEndpoint = "rmmap.dereg"

// PageEndpoint serves single-page reads over RPC; it exists only for the
// Fig 15 "no RDMA" ablation, which pays messaging-style costs per page.
const PageEndpoint = "rmmap.page"

// LeaseEndpoint serves failure-detector probes: a successful roundtrip
// renews the caller's lease on this machine and returns its current
// registration generation.
const LeaseEndpoint = "rmmap.lease"

// Replica endpoints (see replica.go): prepare allocates backup frames for
// a registration, commit advances the replication watermark, drop frees a
// replica, and auth serves the consumer-side failover page table.
const (
	ReplPrepareEndpoint = "rmmap.replprep"
	ReplCommitEndpoint  = "rmmap.replcommit"
	ReplDropEndpoint    = "rmmap.repldrop"
	ReplicaEndpoint     = "rmmap.replica"
)

// Errors.
var (
	ErrAuth          = errors.New("kernel: authentication failed")
	ErrDenied        = errors.New("kernel: consumer not permitted by registration ACL")
	ErrNotRegistered = errors.New("kernel: memory not registered")
	ErrRangeOutside  = errors.New("kernel: requested range outside registration")
	// ErrStaleGeneration fences split-brain reads: a consumer revalidating
	// an expired lease found the producer serving a different registration
	// generation, so its mapping (and any cached frames under the old
	// generation) must not be read again.
	ErrStaleGeneration = errors.New("kernel: registration generation changed under an expired lease")
	// ErrReplicaIncomplete refuses failover to a backup whose replication
	// watermark never reached the registration's full page count.
	ErrReplicaIncomplete = errors.New("kernel: replica watermark incomplete")
)

// VMMeta describes a successful registration; the producer ships it (via
// the coordinator) to consumers, which pass it to Rmap.
type VMMeta struct {
	Machine    memsim.MachineID
	ID         FuncID
	Key        Key
	Start, End uint64
	// Pages is the number of present (shadowed) pages registered.
	Pages int
	// Backups lists the machines this registration is asynchronously
	// replicated to (empty without replication); consumers fail over to
	// them when the producer machine dies.
	Backups []memsim.MachineID
}

type regKey struct {
	id  FuncID
	key Key
}

type regEntry struct {
	start, end uint64
	// snapshot is the VPN-ordered (vpn, frame) list MarkCoW returned; the
	// kernel holds a shadow reference on every frame in it. It is never
	// mutated, so replication jobs push it as-is.
	snapshot     []memsim.PageRef
	registeredAt simtime.Time
	// gen is the machine's registration generation at register time; it
	// keys consumer-side page-cache entries so frames of deregistered
	// (and possibly reused) producer PFNs can never serve stale hits.
	gen uint64
	// respCache holds the encoded full-range auth response; many
	// consumers of one registration (e.g. a 200-wide fan-out) fetch the
	// same page table.
	respCache []byte
	// allowed is the connection-based permission list (§4.1, following
	// MITOSIS): non-nil restricts rmap to the listed consumer IDs.
	allowed map[FuncID]struct{}
	// backups snapshots the kernel's replication targets at register time;
	// it travels in the auth response so consumers can fail over.
	backups []memsim.MachineID
}

// Kernel is one machine's RMMAP kernel module.
type Kernel struct {
	mu        sync.Mutex
	machine   *memsim.Machine
	transport rdma.Transport
	cm        *simtime.CostModel
	regs      map[regKey]*regEntry
	// memGen is the registration generation counter: it advances on every
	// deregister_mem (and re-registration), so consumer page caches can
	// tell a live registration's frames from a reclaimed one's.
	memGen uint64
	// pcache is the machine-level remote page cache; nil disables caching
	// (the kernel-level default — platform clusters enable it).
	pcache *PageCache
	// raMax caps the fault-coalescing readahead window in pages; 0 or 1
	// disables readahead.
	raMax int
	// raPages counts pages fetched by readahead beyond demand pages
	// (atomic: bumped on every batch fault, read by stats snapshots).
	raPages atomic.Int64
	// ctrlEpoch is the highest coordinator epoch this kernel has adopted
	// (guarded by mu); control-plane commands from lower epochs are fenced
	// (ctrlepoch.go).
	ctrlEpoch uint64
	// Clock supplies the current virtual time for lease-based
	// reclamation; nil means time 0 (leases disabled).
	Clock func() simtime.Time
	// OnDeregister, when set, is called after a successful deregister_mem
	// with this machine's ID and the first still-valid generation; the
	// platform broadcasts it to every machine's page cache
	// (InvalidateBelow) so reclaimed producer frames drop out everywhere.
	OnDeregister func(producer memsim.MachineID, below uint64)

	// --- Leases (failure detector state; see lease.go) ---

	// leaseTTL > 0 enables the lease table: peers not successfully probed
	// within the TTL become suspect and reads must revalidate.
	leaseTTL      simtime.Duration
	leases        map[memsim.MachineID]*leaseState
	hbMeter       *simtime.Meter
	leaseExpiries int64
	// OnPeerDead, when set, fires once when a probe proves a peer machine
	// crashed (terminal, unlike an expiry).
	OnPeerDead func(peer memsim.MachineID)
	// OnLeaseExpired, when set, fires once per peer when its lease ages
	// out without crash evidence; the platform broadcasts page-cache
	// invalidation exactly like OnDeregister.
	OnLeaseExpired func(peer memsim.MachineID)

	// --- Replication (producer + backup roles; see replica.go) ---

	// replBackups lists this kernel's backup machines; non-empty enables
	// async replication of every registration.
	replBackups []memsim.MachineID
	// replSched schedules deferred work in virtual time (the platform
	// wires Sim.After); replication is inert without it.
	replSched func(d simtime.Duration, fn func())
	replMeter *simtime.Meter
	// replicatedBytes counts page bytes this kernel pushed to backups.
	replicatedBytes int64
	// replicas holds registrations this machine backs up for peers.
	replicas map[replicaKey]*replicaEntry
	// failovers counts consumer-side mapping re-points to a replica.
	failovers atomic.Int64
}

// New returns a kernel for machine m whose remote operations go through t.
func New(m *memsim.Machine, t rdma.Transport, cm *simtime.CostModel) *Kernel {
	return &Kernel{machine: m, transport: t, cm: cm, regs: make(map[regKey]*regEntry)}
}

// Machine returns the hosting machine.
func (k *Kernel) Machine() *memsim.Machine { return k.machine }

// EnablePageCache turns on the machine-level remote page cache with the
// given byte budget; budget ≤ 0 disables it. Either way the frames of any
// previous cache are released first.
func (k *Kernel) EnablePageCache(budget int64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.pcache != nil {
		k.pcache.clear()
	}
	k.pcache = nil
	if budget > 0 {
		k.pcache = NewPageCache(k.machine, budget)
	}
}

// PageCache returns the machine's remote page cache (nil when disabled).
func (k *Kernel) PageCache() *PageCache { return k.pcache }

// SetReadahead caps the fault-coalescing readahead window in pages;
// 0 or 1 disables readahead.
func (k *Kernel) SetReadahead(maxPages int) {
	if maxPages < 0 {
		maxPages = 0
	}
	k.raMax = maxPages
}

// ReadaheadPages reports pages fetched by readahead beyond demand faults.
func (k *Kernel) ReadaheadPages() int64 { return k.raPages.Load() }

func (k *Kernel) addReadaheadPages(n int) { k.raPages.Add(int64(n)) }

// CacheStats snapshots this machine's cache and readahead counters.
func (k *Kernel) CacheStats() CacheStats {
	var s CacheStats
	if k.pcache != nil {
		s = k.pcache.Stats()
	}
	s.ReadaheadPages = k.ReadaheadPages()
	return s
}

func (k *Kernel) now() simtime.Time {
	if k.Clock == nil {
		return 0
	}
	return k.Clock()
}

// RegisterMem implements register_mem(id, key, vm_start, vm_end): it marks
// the range copy-on-write in the caller's page table, records shadow
// references on every present frame (so the memory survives the caller's
// exit), and stores auth info for later rmap validation.
func (k *Kernel) RegisterMem(as *memsim.AddressSpace, id FuncID, key Key, start, end uint64) (VMMeta, error) {
	if as.Machine() != k.machine {
		return VMMeta{}, fmt.Errorf("kernel: address space not on machine %d", k.machine.ID())
	}
	snap, err := as.MarkCoW(start, end)
	if err != nil {
		return VMMeta{}, err
	}
	for _, p := range snap {
		k.machine.Ref(p.PFN)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	rk := regKey{id, key}
	if old, ok := k.regs[rk]; ok {
		// Re-registration replaces the previous shadow set; bump the
		// generation so cached pages of the old set go stale.
		for _, p := range old.snapshot {
			k.machine.Unref(p.PFN)
		}
		k.memGen++
	}
	e := &regEntry{
		start: start, end: end, snapshot: snap, registeredAt: k.now(),
		gen: k.memGen, backups: append([]memsim.MachineID(nil), k.replBackups...),
	}
	k.regs[rk] = e
	k.scheduleReplicationLocked(rk, e)
	return VMMeta{
		Machine: k.machine.ID(), ID: id, Key: key,
		Start: start, End: end, Pages: len(snap),
		Backups: append([]memsim.MachineID(nil), e.backups...),
	}, nil
}

// SetACL restricts a registration to the listed consumer IDs (nil or
// empty allows any key-holder) — the connection-based permission control
// that isolates access from unrelated functions.
func (k *Kernel) SetACL(id FuncID, key Key, allowed []FuncID) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	e, ok := k.regs[regKey{id, key}]
	if !ok {
		return fmt.Errorf("%w: id=%d", ErrNotRegistered, id)
	}
	if len(allowed) == 0 {
		e.allowed = nil
		return nil
	}
	e.allowed = make(map[FuncID]struct{}, len(allowed))
	for _, c := range allowed {
		e.allowed[c] = struct{}{}
	}
	return nil
}

// DeregisterMem implements deregister_mem(job_id, key): it drops the shadow
// references, allowing the frames to be freed once no consumer mapping
// still holds them.
func (k *Kernel) DeregisterMem(id FuncID, key Key) error {
	k.mu.Lock()
	e, ok := k.regs[regKey{id, key}]
	if ok {
		delete(k.regs, regKey{id, key})
		// The freed PFNs may be reused by any later registration, so the
		// generation advances past this entry's: consumer caches keyed on
		// (machine, pfn, e.gen) can never serve the reused frames.
		if k.memGen <= e.gen {
			k.memGen = e.gen + 1
		}
	}
	k.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: id=%d", ErrNotRegistered, id)
	}
	for _, p := range e.snapshot {
		k.machine.Unref(p.PFN)
	}
	if k.OnDeregister != nil {
		k.OnDeregister(k.machine.ID(), e.gen+1)
	}
	k.scheduleReplicaDrop(id, key, e.backups)
	return nil
}

// Registrations reports how many registrations are live.
func (k *Kernel) Registrations() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.regs)
}

// ScanExpired reclaims registrations older than maxAge — the
// coordinator-failure fallback of §4.2 ("maximum lifetime plus a grace
// period"). It returns the number reclaimed.
func (k *Kernel) ScanExpired(maxAge simtime.Duration) int {
	now := k.now()
	k.mu.Lock()
	var expired []regKey
	for rk, e := range k.regs {
		if now.Sub(e.registeredAt) > maxAge {
			expired = append(expired, rk)
		}
	}
	k.mu.Unlock()
	for _, rk := range expired {
		// DeregisterMem re-checks existence under the lock.
		_ = k.DeregisterMem(rk.id, rk.key)
	}
	return len(expired)
}

// SetSegment implements set_segment: it positions a heap/stack segment of
// the container at a fixed range so that the address-space plan (§4.2) is
// enforced even for OS-assigned segments.
func (k *Kernel) SetSegment(as *memsim.AddressSpace, kind memsim.VMAKind, start, end uint64) error {
	return as.MapAnon(start, end, kind, true)
}

// --- RPC service side ---

// ServeRPC registers this kernel's endpoints on a SimFabric.
func (k *Kernel) ServeRPC(f *rdma.SimFabric) {
	f.HandleFunc(k.machine.ID(), AuthEndpoint, k.handleAuth)
	f.HandleFunc(k.machine.ID(), DeregEndpoint, k.handleDereg)
	f.HandleFunc(k.machine.ID(), PageEndpoint, k.handlePage)
	f.HandleFunc(k.machine.ID(), LeaseEndpoint, k.handleLease)
	f.HandleFunc(k.machine.ID(), ReplPrepareEndpoint, k.handleReplPrepare)
	f.HandleFunc(k.machine.ID(), ReplCommitEndpoint, k.handleReplCommit)
	f.HandleFunc(k.machine.ID(), ReplDropEndpoint, k.handleReplDrop)
	f.HandleFunc(k.machine.ID(), ReplicaEndpoint, k.handleReplicaAuth)
}

// ServeTCP registers this kernel's endpoints on a TCP server.
func (k *Kernel) ServeTCP(s *rdma.TCPServer) {
	s.HandleFunc(AuthEndpoint, k.handleAuth)
	s.HandleFunc(DeregEndpoint, k.handleDereg)
	s.HandleFunc(PageEndpoint, k.handlePage)
	s.HandleFunc(LeaseEndpoint, k.handleLease)
	s.HandleFunc(ReplPrepareEndpoint, k.handleReplPrepare)
	s.HandleFunc(ReplCommitEndpoint, k.handleReplCommit)
	s.HandleFunc(ReplDropEndpoint, k.handleReplDrop)
	s.HandleFunc(ReplicaEndpoint, k.handleReplicaAuth)
}

// handleAuth serves an auth request (encoded by authRequest). Its reply:
//
//	count u32 | gen u64 | nback u16 | nback × (mac u64) | count × (vpn u64, pfn u64)
//
// The records are strictly VPN-increasing (they are the registration's
// snapshot, filtered to the range), so the reply and its cached bytes are
// a pure function of the registration; parseAuthResponse rejects any
// other order.
func (k *Kernel) handleAuth(m *simtime.Meter, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	id := FuncID(r.U64())
	key := Key(r.U64())
	start := r.U64()
	end := r.U64()
	consumer := FuncID(r.U64())
	if !r.Done() {
		return nil, fmt.Errorf("kernel: bad auth request")
	}

	k.mu.Lock()
	defer k.mu.Unlock()
	e, ok := k.regs[regKey{id, key}]
	if !ok {
		return nil, fmt.Errorf("%w: id=%d", ErrAuth, id)
	}
	if e.allowed != nil {
		if _, ok := e.allowed[consumer]; !ok {
			return nil, fmt.Errorf("%w: consumer %d", ErrDenied, consumer)
		}
	}
	if start < e.start || end > e.end {
		return nil, fmt.Errorf("%w: [%#x,%#x) not within [%#x,%#x)",
			ErrRangeOutside, start, end, e.start, e.end)
	}
	full := start == e.start && end == e.end
	if full && e.respCache != nil {
		return e.respCache, nil
	}
	resp := make([]byte, 4, 14+8*len(e.backups)+16*len(e.snapshot)) // count, back-patched below
	resp = binary.LittleEndian.AppendUint64(resp, e.gen)
	resp = binary.LittleEndian.AppendUint16(resp, uint16(len(e.backups)))
	for _, b := range e.backups {
		resp = binary.LittleEndian.AppendUint64(resp, uint64(b))
	}
	count := 0
	for _, p := range e.snapshot {
		if p.VPN.Base() >= start && p.VPN.Base() < end {
			resp = binary.LittleEndian.AppendUint64(resp, uint64(p.VPN))
			resp = binary.LittleEndian.AppendUint64(resp, uint64(p.PFN))
			count++
		}
	}
	binary.LittleEndian.PutUint32(resp, uint32(count))
	if full {
		e.respCache = resp
	}
	return resp, nil
}

// dereg request: id u64 | key u64
func (k *Kernel) handleDereg(m *simtime.Meter, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	id := FuncID(r.U64())
	key := Key(r.U64())
	if !r.Done() {
		return nil, fmt.Errorf("kernel: bad dereg request")
	}
	if err := k.DeregisterMem(id, key); err != nil {
		return nil, err
	}
	return []byte{1}, nil
}

// page request: pfn u64 → page bytes (the no-RDMA ablation path).
func (k *Kernel) handlePage(m *simtime.Meter, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	pfn := memsim.PFN(r.U64())
	if !r.Done() {
		return nil, fmt.Errorf("kernel: bad page request")
	}
	buf := make([]byte, memsim.PageSize)
	if err := k.machine.ReadFrameErr(pfn, 0, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
