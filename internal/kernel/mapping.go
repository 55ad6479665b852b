package kernel

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"rmmap/internal/memsim"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
)

// PagingMode selects how the consumer fetches remote pages on fault.
type PagingMode int

const (
	// PagingRDMA reads pages with one-sided RDMA (the design point).
	PagingRDMA PagingMode = iota
	// PagingRPC fetches pages with RPCs to the producer kernel — the
	// Fig 15 ablation showing why the RDMA co-design is necessary
	// (the paper reports a 62.2% slowdown without it).
	PagingRPC
)

// Mapping is a live rmap: the producer's [Start, End) mapped into a
// consumer address space.
type Mapping struct {
	k        *Kernel
	as       *memsim.AddressSpace
	target   memsim.MachineID
	Start    uint64
	End      uint64
	remotePT []memsim.PageRef // VPN-ordered; nil until authorized
	mode     PagingMode
	unmapped bool

	// gen is the producer registration's generation, keying page-cache
	// entries for this mapping's pages.
	gen uint64

	// Failover state. target stays the LOGICAL producer — it keys the page
	// cache, so entries fetched before a crash remain valid hits after —
	// while readTarget is the machine fabric reads actually go to. After a
	// failover readTarget is a backup and physPT is the VPN-ordered table
	// of backup frames; until then physPT is nil and reads use remotePT on
	// readTarget.
	id         FuncID
	key        Key
	consumer   FuncID
	backups    []memsim.MachineID
	readTarget memsim.MachineID
	physPT     []memsim.PageRef
	failedOver bool

	// Adaptive readahead state: raWindow is the current window in pages
	// (doubled on sequential faults, reset to 1 on a stride break, capped
	// at Kernel.raMax); raNext is the predicted next sequential fault.
	raWindow int
	raNext   memsim.VPN

	// Preallocated fetch scratch (zero-allocation contract, DESIGN.md
	// §12): the five parallel slices below are the read descriptors and
	// install staging for one fetch. All grow on first use and are reused
	// by every later fetch of this mapping. A mapping is used by one
	// container at a time (like its address space), so the scratch needs
	// no locking.
	vpns   []memsim.VPN    // pages to install
	locals []memsim.PFN    // freshly allocated destination frames
	rpfns  []memsim.PFN    // producer (logical) frame numbers, cache keys
	canon  []memsim.PFN    // canonical frames returned by cache admission
	reqs   []rdma.PageRead // doorbell batch descriptors
}

// ensureScratch sizes the fetch scratch for n pages.
func (mp *Mapping) ensureScratch(n int) {
	if cap(mp.locals) < n {
		pfns := make([]memsim.PFN, 3*n) // one backing array for the three
		mp.locals, mp.rpfns, mp.canon = pfns[:0:n], pfns[n:n:2*n], pfns[2*n:]
		mp.vpns = make([]memsim.VPN, 0, n)
		mp.reqs = make([]rdma.PageRead, 0, n)
	}
	mp.vpns = mp.vpns[:0]
	mp.locals = mp.locals[:0]
	mp.rpfns = mp.rpfns[:0]
	mp.reqs = mp.reqs[:0]
}

// findPage binary-searches a VPN-ordered page table for vpn.
func findPage(pt []memsim.PageRef, vpn memsim.VPN) (int, bool) {
	return slices.BinarySearchFunc(pt, vpn, func(p memsim.PageRef, v memsim.VPN) int { return cmp.Compare(p.VPN, v) })
}

// Rmap implements rmap(mac_addr, id, key, vm_start, vm_end) for consumer
// address space as: it issues the auth/page-table RPC to the producer's
// kernel (charged to the map category), then installs a remote-backed VMA.
// It fails if the range conflicts with an existing mapping — the error the
// address-space plan exists to prevent.
func (k *Kernel) Rmap(as *memsim.AddressSpace, mac memsim.MachineID, id FuncID, key Key, start, end uint64) (*Mapping, error) {
	return k.RmapMeta(as, VMMeta{Machine: mac, ID: id, Key: key, Start: start, End: end}, 0, PagingRDMA)
}

// RmapMeta is Rmap driven by a registration's VMMeta, with an explicit
// consumer identity and paging mode. The consumer is validated against the
// registration's ACL (connection-based permission control, §4.1); consumer
// 0 is anonymous and passes only ACL-free registrations. meta.Backups lets
// the consumer fail over to a replica even when the producer is already
// dead at rmap time (the auth RPC that would have named the backups can no
// longer be answered). PagingRPC is the Fig 15 ablation.
func (k *Kernel) RmapMeta(as *memsim.AddressSpace, meta VMMeta, consumer FuncID, mode PagingMode) (*Mapping, error) {
	mac, id, key, start, end := meta.Machine, meta.ID, meta.Key, meta.Start, meta.End
	if as.Machine() != k.machine {
		return nil, fmt.Errorf("kernel: address space not on machine %d", k.machine.ID())
	}
	meter := as.Meter()

	mp := &Mapping{k: k, as: as, target: mac, Start: start, End: end, mode: mode,
		id: id, key: key, consumer: consumer, readTarget: mac,
		backups: append([]memsim.MachineID(nil), meta.Backups...)}

	// A lease that already proved the producer dead skips the doomed auth
	// RPC and goes straight to a replica.
	if mode == PagingRDMA && len(mp.backups) > 0 && k.PeerDead(mac) {
		if err := mp.failover(meter); err != nil {
			return nil, err
		}
		return mp.finish(meter)
	}

	// Auth RPC, piggybacking the page-table fetch (§4.1 Fig 8 step 2).
	resp, err := k.transport.Call(meter, mac, AuthEndpoint, authRequest(id, key, start, end, consumer))
	if err != nil {
		if mode == PagingRDMA && len(mp.backups) > 0 && errors.Is(err, memsim.ErrMachineCrashed) {
			k.ProbeFailed(mac, err)
			if ferr := mp.failover(meter); ferr != nil {
				return nil, ferr
			}
			return mp.finish(meter)
		}
		return nil, err
	}
	ar, err := parseAuthResponse(resp)
	if err != nil {
		return nil, err
	}
	if len(ar.backups) > 0 {
		// The producer's own backup list is authoritative.
		mp.backups = ar.backups
	}
	mp.remotePT = ar.pages
	mp.gen = ar.gen
	return mp.finish(meter)
}

// finish installs the remote-backed VMA once the page table (producer's or
// a replica's) is in hand.
func (mp *Mapping) finish(meter *simtime.Meter) (*Mapping, error) {
	vma := &memsim.VMA{
		Start: mp.Start, End: mp.End, Kind: memsim.SegRmap, Writable: true,
		Fault: mp.fault,
	}
	if err := mp.as.AddVMA(vma); err != nil {
		return nil, err
	}
	meter.Charge(simtime.CatMap, mp.k.cm.VMACreate)
	return mp, nil
}

// failover re-points the mapping at the first backup holding a complete
// replica of the registration. The mapping's logical identity — target
// machine, producer frame numbers, generation — is untouched, so page-cache
// entries fetched before the crash stay valid hits; only readTarget and the
// physical page table change. Generation fencing applies: a replica of a
// different generation than the one this mapping was authorized for is
// useless (ErrStaleGeneration). When every backup fails, the returned error
// wraps ErrMachineCrashed so the platform's ladder falls back to
// re-execution.
func (mp *Mapping) failover(meter *simtime.Meter) error {
	var lastErr error = ErrReplicaIncomplete
	for _, b := range mp.backups {
		if b == mp.target {
			continue
		}
		gen, complete, logical, phys, err := mp.k.replicaAuthCall(
			meter, b, mp.target, mp.id, mp.key, mp.Start, mp.End, mp.consumer)
		if err != nil {
			lastErr = err
			continue
		}
		if mp.remotePT != nil && gen != mp.gen {
			lastErr = ErrStaleGeneration
			continue
		}
		if !complete {
			lastErr = ErrReplicaIncomplete
			continue
		}
		if mp.remotePT == nil {
			// Rmap-time failover: the replica's view is the page table.
			mp.remotePT = logical
			mp.gen = gen
		}
		mp.physPT = phys
		mp.readTarget = b
		mp.failedOver = true
		mp.k.failovers.Add(1)
		return nil
	}
	return fmt.Errorf("kernel: failover of [%#x,%#x) from machine %d failed (%w): %w",
		mp.Start, mp.End, mp.target, lastErr, memsim.ErrMachineCrashed)
}

// tryFailover reacts to a failed fabric read: if the read target crashed
// and a backup may hold a complete replica, re-point and tell the caller
// to retry once.
func (mp *Mapping) tryFailover(meter *simtime.Meter, err error) bool {
	if mp.failedOver || mp.mode != PagingRDMA || len(mp.backups) == 0 {
		return false
	}
	if !errors.Is(err, memsim.ErrMachineCrashed) {
		return false
	}
	mp.k.ProbeFailed(mp.target, err)
	return mp.failover(meter) == nil
}

// physPFN maps a remote page to the frame number to read over the fabric:
// the backup's frame after a failover, the producer's otherwise.
func (mp *Mapping) physPFN(p memsim.PageRef) memsim.PFN {
	if mp.physPT == nil {
		return p.PFN
	}
	if i, ok := findPage(mp.physPT, p.VPN); ok {
		return mp.physPT[i].PFN
	}
	return 0
}

// ensureFresh applies the lease fence before trusting the mapping. A dead
// producer triggers proactive failover (or a crash error, letting the
// platform re-execute) instead of a doomed read; a suspect lease — aged
// out with no crash evidence, e.g. a partition — revalidates the
// registration's generation with the producer before any page is read. A
// generation mismatch is terminal: frames of the old generation may
// already be reclaimed or reused, so no read is attempted at all.
func (mp *Mapping) ensureFresh(meter *simtime.Meter) error {
	if mp.failedOver || !mp.k.LeasesEnabled() || mp.target == mp.as.Machine().ID() {
		return nil
	}
	if mp.k.PeerDead(mp.target) {
		if mp.mode == PagingRDMA && len(mp.backups) > 0 {
			return mp.failover(meter)
		}
		return fmt.Errorf("kernel: producer machine %d dead: %w", mp.target, memsim.ErrMachineCrashed)
	}
	if mp.k.LeaseSuspect(mp.target) {
		return mp.revalidate(meter)
	}
	return nil
}

// revalidate re-runs the auth RPC for a suspect producer and fences on
// generation equality, charged to the heartbeat category on the
// invocation's meter (it is liveness work, not paging work).
func (mp *Mapping) revalidate(meter *simtime.Meter) error {
	req := authRequest(mp.id, mp.key, mp.Start, mp.End, mp.consumer)
	resp, err := mp.k.transport.CallCat(meter, simtime.CatHeartbeat, mp.target, AuthEndpoint, req)
	if err != nil {
		mp.k.ProbeFailed(mp.target, err)
		if errors.Is(err, memsim.ErrMachineCrashed) && mp.mode == PagingRDMA && len(mp.backups) > 0 {
			return mp.failover(meter)
		}
		return err
	}
	ar, err := parseAuthResponse(resp)
	if err != nil {
		return err
	}
	if ar.gen != mp.gen {
		return fmt.Errorf("kernel: registration (%d,%d) on machine %d regenerated (gen %d, had %d): %w",
			mp.id, mp.key, mp.target, ar.gen, mp.gen, ErrStaleGeneration)
	}
	mp.k.RenewLease(mp.target)
	return nil
}

// cacheable reports whether this mapping's pages go through the machine's
// remote page cache: only genuinely remote RDMA-paged mappings do. Local
// mappings read frames for free, and the RPC ablation must keep paying
// per-page RPCs (Fig 15).
func (mp *Mapping) cacheable() bool {
	return mp.k.pcache != nil && mp.target != mp.as.Machine().ID() && mp.mode == PagingRDMA
}

// fault resolves one page. Pages the producer never touched are zero-filled
// privately. Remote pages consult the machine's page cache first: a hit
// installs the cached frame CoW-shared (zero-copy; the first write breaks
// CoW). A miss fetches the page — together with a window of adjacent
// not-yet-present pages when the fault stream looks sequential.
func (mp *Mapping) fault(as *memsim.AddressSpace, vaddr uint64, ft memsim.FaultType) error {
	meter := as.Meter()
	meter.Charge(simtime.CatFault, mp.k.cm.PageFault)
	if err := mp.ensureFresh(meter); err != nil {
		return err
	}
	vpn := memsim.PageOf(vaddr)
	i, remote := findPage(mp.remotePT, vpn)
	if !remote {
		local := as.Machine().AllocFrame()
		as.InstallPTE(vpn, memsim.PTE{PFN: local, Flags: memsim.FlagPresent | memsim.FlagWritable})
		return nil
	}
	useCache := mp.cacheable()
	if useCache {
		if frame, ok := mp.k.pcache.Lookup(mp.target, mp.remotePT[i].PFN, mp.gen); ok {
			meter.Charge(simtime.CatCache, mp.k.cm.CacheHitInstall)
			// A hit at the predicted address keeps the sequential stream
			// (and its window) alive without fetching anything.
			if vpn == mp.raNext {
				mp.raNext = vpn + 1
			}
			as.InstallShared(vpn, frame)
			return nil
		}
	}

	pages := 1 // readahead widens the fetch beyond the demand page
	if mp.target != as.Machine().ID() && mp.mode == PagingRDMA && mp.k.raMax > 1 {
		if vpn == mp.raNext && mp.raWindow >= 1 {
			mp.raWindow *= 2
		} else {
			mp.raWindow = 1
		}
		if mp.raWindow > mp.k.raMax {
			mp.raWindow = mp.k.raMax
		}
		pages = mp.raWindow
	}
	window := mp.collectWindow(i, pages, useCache)
	mp.raNext = window[len(window)-1].VPN + 1
	if len(window) == 1 {
		return mp.fetch(meter, as, window, true, simtime.CatFault, useCache)
	}
	if err := mp.fetch(meter, as, window, false, simtime.CatReadahead, useCache); err != nil {
		return err
	}
	mp.k.addReadaheadPages(len(window) - 1)
	return nil
}

// collectWindow returns the contiguous run of fetchable pages starting at
// remotePT[i] (known remote, not present, not cached), at most max long.
// The run stops at the first ineligible page or hole in the table,
// matching the next demand fault a sequential scan would take. The window
// is a subslice of remotePT.
func (mp *Mapping) collectWindow(i, max int, useCache bool) []memsim.PageRef {
	j := i + 1
	for ; j-i < max && j < len(mp.remotePT); j++ {
		p := mp.remotePT[j]
		if p.VPN != mp.remotePT[j-1].VPN+1 {
			break
		}
		if pte, ok := mp.as.Lookup(p.VPN); ok && pte.Present() {
			break
		}
		if useCache && mp.k.pcache.Contains(mp.target, p.PFN, mp.gen) {
			break
		}
	}
	return mp.remotePT[i:j]
}

// fetch resolves the remote, not-present, not-cached pages (entries of
// remotePT) — the one fetch path behind demand faults, readahead windows
// and Prefetch. It allocates the destination frames, reads straight into
// them (no staging buffer), fails over to a replica and retries once if the
// read target crashed, and installs. A demand fetch is one page read with a single
// one-sided Read (a page RPC under PagingRPC); anything else is one
// doorbell batch charged to cat. Without the cache the frames stay private
// writable copies — the original CoW coherency model. With it they are
// admitted, installed CoW-shared, and only then is the cache trimmed: the
// address space holds its references before eviction can free a frame.
func (mp *Mapping) fetch(meter *simtime.Meter, as *memsim.AddressSpace, pages []memsim.PageRef, demand bool, cat simtime.Category, useCache bool) error {
	mach := as.Machine()
	mp.ensureScratch(len(pages))
	for _, p := range pages {
		local := mach.AllocFrameUnzeroed()
		mp.vpns = append(mp.vpns, p.VPN)
		mp.locals = append(mp.locals, local)
		mp.rpfns = append(mp.rpfns, p.PFN)
		mp.reqs = append(mp.reqs, rdma.PageRead{PFN: mp.physPFN(p), Buf: mach.BorrowFrame(local)})
	}
	err := mp.read(meter, demand, cat)
	if err != nil && mp.tryFailover(meter, err) {
		// Failover re-points reads at a backup's frames; the destination
		// buffers stay the same.
		for i, p := range pages {
			mp.reqs[i].PFN = mp.physPFN(p)
		}
		err = mp.read(meter, demand, cat)
	}
	if err != nil {
		for _, pfn := range mp.locals {
			mach.Unref(pfn)
		}
		mp.dropCrashed(err)
		return err
	}
	mach.SealFrames(mp.locals)
	if !useCache {
		for i, vpn := range mp.vpns {
			as.InstallPTE(vpn, memsim.PTE{PFN: mp.locals[i], Flags: memsim.FlagPresent | memsim.FlagWritable})
		}
		return nil
	}
	canon := mp.canon[:len(pages)]
	mp.k.pcache.InsertBatch(mp.target, mp.gen, mp.rpfns, mp.locals, canon)
	as.InstallSharedBatch(mp.vpns, canon)
	mp.k.pcache.TrimToBudget(meter, mp.k.cm)
	return nil
}

// read issues the fabric read for the descriptors fetch staged in mp.reqs.
func (mp *Mapping) read(meter *simtime.Meter, demand bool, cat simtime.Category) error {
	if !demand {
		return mp.k.transport.ReadPagesCat(meter, cat, mp.readTarget, mp.reqs)
	}
	r := mp.reqs[0]
	if mp.mode == PagingRPC {
		req := binary.LittleEndian.AppendUint64(make([]byte, 0, 8), uint64(mp.rpfns[0]))
		resp, err := mp.k.transport.CallCat(meter, simtime.CatFault, mp.target, PageEndpoint, req)
		if err != nil {
			return err
		}
		copy(r.Buf, resp)
		return nil
	}
	return mp.k.transport.Read(meter, mp.readTarget, r.PFN, 0, r.Buf)
}

// dropCrashed invalidates the producer machine's cache entries when a read
// failed because that machine crashed and no replica could take over — its
// frames are gone for good. After a successful failover the cached copies
// remain the authoritative bytes of the dead producer's registration
// (generation fencing keeps them honest), so they are kept.
func (mp *Mapping) dropCrashed(err error) {
	if mp.failedOver {
		return
	}
	if mp.k.pcache != nil && errors.Is(err, memsim.ErrMachineCrashed) {
		mp.k.pcache.InvalidateMachine(mp.target)
	}
}

// Prefetch reads the given pages in one doorbell-batched request and
// installs them, so later accesses hit locally with no fault (§4.4). Pages
// outside the mapping or already present are skipped; unknown remote pages
// are zero-filled without network cost. With the page cache enabled,
// already-cached pages install CoW-shared without refetching, and fetched
// pages are inserted for co-located consumers.
func (mp *Mapping) Prefetch(vpns []memsim.VPN) error {
	meter := mp.as.Meter()
	if err := mp.ensureFresh(meter); err != nil {
		return err
	}
	useCache := mp.cacheable()
	miss := make([]memsim.PageRef, 0, len(vpns))
	for _, vpn := range vpns {
		base := vpn.Base()
		if base < mp.Start || base >= mp.End {
			continue
		}
		if pte, ok := mp.as.Lookup(vpn); ok && pte.Present() {
			continue
		}
		i, ok := findPage(mp.remotePT, vpn)
		if !ok {
			local := mp.as.Machine().AllocFrame()
			mp.as.InstallPTE(vpn, memsim.PTE{PFN: local, Flags: memsim.FlagPresent | memsim.FlagWritable})
			continue
		}
		if useCache {
			if frame, hit := mp.k.pcache.Lookup(mp.target, mp.remotePT[i].PFN, mp.gen); hit {
				meter.Charge(simtime.CatCache, mp.k.cm.CacheHitInstall)
				mp.as.InstallShared(vpn, frame)
				continue
			}
		}
		miss = append(miss, mp.remotePT[i])
	}
	if len(miss) == 0 {
		return nil
	}
	return mp.fetch(meter, mp.as, miss, false, simtime.CatFault, useCache)
}

// PrefetchRange prefetches every page of [start, end) within the mapping.
func (mp *Mapping) PrefetchRange(start, end uint64) error {
	var vpns []memsim.VPN
	for vpn := memsim.PageOf(start); vpn.Base() < end; vpn++ {
		vpns = append(vpns, vpn)
	}
	return mp.Prefetch(vpns)
}

// Unmap tears the mapping down, releasing the consumer-side frames. It is
// what the hybrid GC calls when the remote root dies (§4.3).
func (mp *Mapping) Unmap() error {
	if mp.unmapped {
		return nil
	}
	mp.unmapped = true
	return mp.as.Unmap(mp.Start, mp.End)
}

// Target returns the logical producer machine (unchanged by failover).
func (mp *Mapping) Target() memsim.MachineID { return mp.target }

// ReadTarget returns the machine fabric reads currently go to: a backup
// after a failover, the producer otherwise.
func (mp *Mapping) ReadTarget() memsim.MachineID { return mp.readTarget }

// FailedOver reports whether the mapping was re-pointed at a replica.
func (mp *Mapping) FailedOver() bool { return mp.failedOver }

// RemotePages reports how many remote pages the mapping knows about.
func (mp *Mapping) RemotePages() int { return len(mp.remotePT) }

// Generation returns the producer registration's generation.
func (mp *Mapping) Generation() uint64 { return mp.gen }
