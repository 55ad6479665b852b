package memsim

import (
	"errors"
	"fmt"
	"sort"

	"rmmap/internal/simtime"
)

// PTEFlags describe a page-table entry's state.
type PTEFlags uint8

const (
	// FlagPresent means the page is mapped to a local frame.
	FlagPresent PTEFlags = 1 << iota
	// FlagWritable allows stores without a fault.
	FlagWritable
	// FlagCoW marks a page copy-on-write: the frame is shared (it has a
	// shadow reference held by the RMMAP kernel) and a store must break
	// the sharing by copying.
	FlagCoW
)

// PTE is a page-table entry.
type PTE struct {
	PFN   PFN
	Flags PTEFlags
}

// Present reports whether the entry maps a frame.
func (p PTE) Present() bool { return p.Flags&FlagPresent != 0 }

// FaultType distinguishes read from write faults.
type FaultType int

const (
	// FaultRead is a load to an unmapped page.
	FaultRead FaultType = iota
	// FaultWrite is a store to an unmapped or write-protected page.
	FaultWrite
)

// FaultHandler resolves a fault on one page of a VMA by installing a PTE
// (via InstallPTE) or returning an error. vaddr is the faulting address.
type FaultHandler func(as *AddressSpace, vaddr uint64, ft FaultType) error

// VMAKind labels a region's role; SegHeap/SegStack are the segments
// set_segment positions (§4.1 Table 1).
type VMAKind string

// Segment kinds.
const (
	SegText  VMAKind = "text"
	SegData  VMAKind = "data"
	SegHeap  VMAKind = "heap"
	SegStack VMAKind = "stack"
	SegRmap  VMAKind = "rmap"
)

// VMA is a virtual memory area: [Start, End) with a fault handler and the
// page-table entries of its pages.
type VMA struct {
	Start, End uint64
	Kind       VMAKind
	Writable   bool
	Fault      FaultHandler

	// ptes is the region's page table, indexed by vpn − PageOf(Start). It
	// grows to the highest page ever installed and a zero entry is absent:
	// heap, text and rmap regions fill from their start, and the stack is
	// never touched, so the array is as dense as the region's use.
	ptes []PTE
}

func (v *VMA) contains(addr uint64) bool { return addr >= v.Start && addr < v.End }

// pte returns the entry of vpn, a page of v.
func (v *VMA) pte(vpn VPN) PTE {
	if i := int(vpn - PageOf(v.Start)); i < len(v.ptes) {
		return v.ptes[i]
	}
	return PTE{}
}

// setPTE stores the entry of vpn, a page of v, growing the array to it.
func (v *VMA) setPTE(vpn VPN, pte PTE) {
	i := int(vpn - PageOf(v.Start))
	if n := i + 1 - len(v.ptes); n > 0 {
		v.ptes = append(v.ptes, make([]PTE, n)...)
	}
	v.ptes[i] = pte
}

// PageRef names the frame behind one virtual page. A register_mem snapshot
// and the page tables shipped to consumers are []PageRef in strictly
// increasing VPN order.
type PageRef struct {
	VPN VPN
	PFN PFN
}

// Len returns the region size in bytes.
func (v *VMA) Len() uint64 { return v.End - v.Start }

// Errors returned by address-space operations.
var (
	ErrSegFault   = errors.New("memsim: segmentation fault (no VMA)")
	ErrVMAOverlap = errors.New("memsim: VMA overlaps existing mapping")
	ErrReadOnly   = errors.New("memsim: write to read-only mapping")
	ErrBadRange   = errors.New("memsim: bad address range")
)

// AddressSpace is one container's virtual address space on a machine. It is
// not safe for concurrent use; a container runs one function at a time.
type AddressSpace struct {
	machine *Machine
	vmas    []*VMA // sorted by Start; each holds its pages' PTEs

	meter *simtime.Meter
	cm    *simtime.CostModel

	faults int // cumulative fault count, for tests and factor analysis

	// One-entry TLB: object reads are byte-at-a-time page-table walks
	// otherwise. Invalidated on any page-table mutation.
	tlbVPN   VPN
	tlbPTE   PTE
	tlbValid bool
}

func (as *AddressSpace) tlbLookup(vpn VPN) (PTE, bool) {
	if as.tlbValid && as.tlbVPN == vpn {
		return as.tlbPTE, true
	}
	pte, ok := as.Lookup(vpn)
	if ok && pte.Present() {
		as.tlbVPN, as.tlbPTE, as.tlbValid = vpn, pte, true
	}
	return pte, ok
}

func (as *AddressSpace) tlbFlush() { as.tlbValid = false }

// NewAddressSpace returns an empty address space on machine m, charging
// costs from cm (which must be non-nil).
func NewAddressSpace(m *Machine, cm *simtime.CostModel) *AddressSpace {
	if cm == nil {
		panic("memsim: nil cost model")
	}
	return &AddressSpace{machine: m, cm: cm}
}

// Machine returns the hosting machine.
func (as *AddressSpace) Machine() *Machine { return as.machine }

// CostModel returns the cost model in use.
func (as *AddressSpace) CostModel() *simtime.CostModel { return as.cm }

// SetMeter directs subsequent fault/copy charges at m (the currently
// executing invocation's meter). A nil meter disables charging.
func (as *AddressSpace) SetMeter(m *simtime.Meter) { as.meter = m }

// Meter returns the current accounting target.
func (as *AddressSpace) Meter() *simtime.Meter { return as.meter }

// Faults returns the cumulative page-fault count.
func (as *AddressSpace) Faults() int { return as.faults }

func checkRange(start, end uint64) error {
	if end <= start || start%PageSize != 0 || end%PageSize != 0 {
		return fmt.Errorf("%w: [%#x,%#x)", ErrBadRange, start, end)
	}
	return nil
}

// AddVMA inserts a mapping, rejecting overlap with any existing VMA — the
// conflict check that makes rmap fail on address collisions (Table 1).
func (as *AddressSpace) AddVMA(v *VMA) error {
	if err := checkRange(v.Start, v.End); err != nil {
		return err
	}
	for _, o := range as.vmas {
		if v.Start < o.End && o.Start < v.End {
			return fmt.Errorf("%w: new [%#x,%#x) vs %s [%#x,%#x)",
				ErrVMAOverlap, v.Start, v.End, o.Kind, o.Start, o.End)
		}
	}
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	return nil
}

// MapAnon creates a demand-zero anonymous mapping, the normal backing for
// heap/stack/data segments.
func (as *AddressSpace) MapAnon(start, end uint64, kind VMAKind, writable bool) error {
	return as.AddVMA(&VMA{
		Start: start, End: end, Kind: kind, Writable: writable,
		Fault: anonFault,
	})
}

func anonFault(as *AddressSpace, vaddr uint64, ft FaultType) error {
	pfn := as.machine.AllocFrame()
	flags := FlagPresent
	if v := as.FindVMA(vaddr); v != nil && v.Writable {
		flags |= FlagWritable
	}
	as.InstallPTE(PageOf(vaddr), PTE{PFN: pfn, Flags: flags})
	return nil
}

// FindVMA returns the VMA containing addr, or nil.
func (as *AddressSpace) FindVMA(addr uint64) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > addr })
	if i < len(as.vmas) && as.vmas[i].contains(addr) {
		return as.vmas[i]
	}
	return nil
}

// VMAs returns the current mappings (sorted, not to be mutated).
func (as *AddressSpace) VMAs() []*VMA { return as.vmas }

// InstallPTE sets the page-table entry for vpn, which must lie inside a
// VMA. Fault handlers use it to resolve faults; the kernel uses it during
// CoW marking and rmap.
func (as *AddressSpace) InstallPTE(vpn VPN, pte PTE) {
	v := as.FindVMA(vpn.Base())
	if v == nil {
		panic(fmt.Sprintf("memsim: InstallPTE at %#x outside every VMA", vpn.Base()))
	}
	if old := v.pte(vpn); old.Present() && old.PFN != pte.PFN {
		as.machine.Unref(old.PFN)
	}
	v.setPTE(vpn, pte)
	as.tlbFlush()
}

// InstallShared maps vpn onto an existing frame without copying: it takes
// a reference on pfn and installs a write-protected CoW entry, so the frame
// is shared zero-copy until the first write breaks CoW. The remote page
// cache uses it to hand one fetched frame to many co-located consumers.
func (as *AddressSpace) InstallShared(vpn VPN, pfn PFN) {
	as.machine.Ref(pfn)
	as.InstallPTE(vpn, PTE{PFN: pfn, Flags: FlagPresent | FlagCoW})
}

// InstallSharedBatch is InstallShared over a whole readahead window: the
// reference counts are taken in one shard-ordered batch (Machine.RefBatch)
// and the PTEs installed in window order — one critical section per run of
// same-shard frames instead of a lock round-trip per page.
func (as *AddressSpace) InstallSharedBatch(vpns []VPN, pfns []PFN) {
	if len(vpns) != len(pfns) {
		panic("memsim: InstallSharedBatch length mismatch")
	}
	as.machine.RefBatch(pfns)
	for i, vpn := range vpns {
		as.InstallPTE(vpn, PTE{PFN: pfns[i], Flags: FlagPresent | FlagCoW})
	}
}

// Lookup returns the PTE for vpn.
func (as *AddressSpace) Lookup(vpn VPN) (PTE, bool) {
	v := as.FindVMA(vpn.Base())
	if v == nil {
		return PTE{}, false
	}
	pte := v.pte(vpn)
	return pte, pte != PTE{}
}

// Unmap removes the VMA exactly covering [start, end), releasing its
// present frames.
func (as *AddressSpace) Unmap(start, end uint64) error {
	for i, v := range as.vmas {
		if v.Start == start && v.End == end {
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			as.tlbFlush()
			as.drop(v)
			return nil
		}
	}
	return fmt.Errorf("%w: no VMA [%#x,%#x)", ErrBadRange, start, end)
}

// Release tears down the whole address space, dropping every frame
// reference. Registered (shadowed) frames survive because the kernel holds
// its own references.
func (as *AddressSpace) Release() {
	as.tlbFlush()
	for _, v := range as.vmas {
		as.drop(v)
	}
	as.vmas = nil
}

// drop releases the present frames of a removed VMA in VPN order, so the
// machine's LIFO free list — and every later PFN assignment — is a pure
// function of the page tables.
func (as *AddressSpace) drop(v *VMA) {
	for _, pte := range v.ptes {
		if pte.Present() {
			as.machine.Unref(pte.PFN)
		}
	}
	v.ptes = nil
}

func (as *AddressSpace) handleFault(vaddr uint64, ft FaultType) error {
	v := as.FindVMA(vaddr)
	if v == nil {
		return fmt.Errorf("%w: %#x", ErrSegFault, vaddr)
	}
	if ft == FaultWrite && !v.Writable {
		return fmt.Errorf("%w: %#x in %s VMA", ErrReadOnly, vaddr, v.Kind)
	}
	if v.Fault == nil {
		return fmt.Errorf("%w: %#x (no fault handler)", ErrSegFault, vaddr)
	}
	as.faults++
	return v.Fault(as, vaddr, ft)
}

// Read copies len(buf) bytes from virtual address vaddr, faulting pages in
// as needed. Remote faults charge the current meter via their handler.
func (as *AddressSpace) Read(vaddr uint64, buf []byte) error {
	for len(buf) > 0 {
		vpn := PageOf(vaddr)
		pte, ok := as.tlbLookup(vpn)
		if !ok || !pte.Present() {
			if err := as.handleFault(vaddr, FaultRead); err != nil {
				return err
			}
			pte, _ = as.Lookup(vpn)
			if !pte.Present() {
				return fmt.Errorf("%w: fault handler left %#x unmapped", ErrSegFault, vaddr)
			}
		}
		off := int(vaddr & (PageSize - 1))
		n := PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		as.machine.ReadFrame(pte.PFN, off, buf[:n])
		buf = buf[n:]
		vaddr += uint64(n)
	}
	return nil
}

// Write copies data to virtual address vaddr, faulting and breaking CoW as
// needed. A store to a CoW page copies the frame (charging memcpy cost) and
// drops the shared reference — isolating the producer's later writes from
// consumers, exactly the model of §4.1 "Coherency".
func (as *AddressSpace) Write(vaddr uint64, data []byte) error {
	for len(data) > 0 {
		vpn := PageOf(vaddr)
		pte, ok := as.tlbLookup(vpn)
		switch {
		case !ok || !pte.Present():
			if err := as.handleFault(vaddr, FaultWrite); err != nil {
				return err
			}
			continue
		case pte.Flags&FlagCoW != 0:
			as.breakCoW(vpn, pte)
			continue
		case pte.Flags&FlagWritable == 0:
			return fmt.Errorf("%w: %#x", ErrReadOnly, vaddr)
		}
		off := int(vaddr & (PageSize - 1))
		n := PageSize - off
		if n > len(data) {
			n = len(data)
		}
		as.machine.WriteFrame(pte.PFN, off, data[:n])
		data = data[n:]
		vaddr += uint64(n)
	}
	return nil
}

func (as *AddressSpace) breakCoW(vpn VPN, pte PTE) {
	newPFN := as.machine.CopyFrame(pte.PFN)
	as.machine.Unref(pte.PFN)
	as.FindVMA(vpn.Base()).setPTE(vpn, PTE{PFN: newPFN, Flags: FlagPresent | FlagWritable})
	as.tlbFlush()
	if as.meter != nil {
		as.meter.Charge(simtime.CatCompute, simtime.Bytes(PageSize, as.cm.MemcpyPerByte))
	}
}

// MarkCoW write-protects every present page in [start, end) and returns the
// VPN-ordered snapshot of those pages. register_mem uses it: the snapshot
// becomes both the shadow-copy set and the page table shipped to consumers.
// The walk visits only the overlapping VMAs' installed entries, so a huge
// sparse registration costs what is resident, like a real PTE walk that
// skips absent directories. The caller is charged CoWMarkPerPage per
// present page.
func (as *AddressSpace) MarkCoW(start, end uint64) ([]PageRef, error) {
	if err := checkRange(start, end); err != nil {
		return nil, err
	}
	as.tlbFlush()
	first, last := PageOf(start), PageOf(end)
	// window returns the index range of v's installed entries inside
	// [start, end).
	window := func(v *VMA) (lo, hi VPN) {
		base := PageOf(v.Start)
		return max(first, base) - base, min(last-base, VPN(len(v.ptes)))
	}
	overlapping := as.vmas[sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > start }):]
	n := 0
	for _, v := range overlapping {
		if v.Start >= end {
			break
		}
		if lo, hi := window(v); lo < hi {
			n += int(hi - lo)
		}
	}
	snap := make([]PageRef, 0, n)
	for _, v := range overlapping {
		if v.Start >= end {
			break
		}
		lo, hi := window(v)
		for i := lo; i < hi; i++ {
			pte := &v.ptes[i]
			if pte.Present() {
				pte.Flags = (pte.Flags | FlagCoW) &^ FlagWritable
				snap = append(snap, PageRef{VPN: PageOf(v.Start) + i, PFN: pte.PFN})
			}
		}
	}
	if as.meter != nil {
		as.meter.Charge(simtime.CatRegister, simtime.Scale(as.cm.CoWMarkPerPage, len(snap)))
	}
	return snap, nil
}

// --- small typed accessors used by the object runtime ---

// ReadUint64 loads a little-endian uint64.
func (as *AddressSpace) ReadUint64(vaddr uint64) (uint64, error) {
	var b [8]byte
	if err := as.Read(vaddr, b[:]); err != nil {
		return 0, err
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
}

// WriteUint64 stores a little-endian uint64.
func (as *AddressSpace) WriteUint64(vaddr uint64, v uint64) error {
	b := [8]byte{
		byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
		byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56),
	}
	return as.Write(vaddr, b[:])
}
