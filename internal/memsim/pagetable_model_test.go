package memsim

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"rmmap/internal/simtime"
)

// modelAS is the reference the per-VMA page tables are checked against: one
// map[VPN]PTE over a machine of its own, with every access spelled out page
// by page. It frees frames in VPN order, the order AddressSpace promises,
// so the two machines hand out the same PFN sequence.
type modelAS struct {
	m          *Machine
	pt         map[VPN]PTE
	vmas       map[uint64]VMA // by Start
	cowBreaks  int
	segFaults  int
	readOnlies int
}

func (r *modelAS) vma(vpn VPN) (VMA, bool) {
	for _, v := range r.vmas {
		if v.contains(vpn.Base()) {
			return v, true
		}
	}
	return VMA{}, false
}

func (r *modelAS) install(vpn VPN, pte PTE) {
	if old, ok := r.pt[vpn]; ok && old.PFN != pte.PFN {
		r.m.Unref(old.PFN)
	}
	r.pt[vpn] = pte
}

// page resolves vpn for one access: a demand-zero fault, then a CoW break
// for a store.
func (r *modelAS) page(vpn VPN, write bool) (PTE, error) {
	pte, ok := r.pt[vpn]
	if !ok {
		v, ok := r.vma(vpn)
		switch {
		case !ok:
			r.segFaults++
			return PTE{}, ErrSegFault
		case write && !v.Writable:
			r.readOnlies++
			return PTE{}, ErrReadOnly
		}
		pte = PTE{PFN: r.m.AllocFrame(), Flags: FlagPresent}
		if v.Writable {
			pte.Flags |= FlagWritable
		}
		r.pt[vpn] = pte
	}
	if write && pte.Flags&FlagCoW != 0 {
		r.cowBreaks++
		pfn := r.m.CopyFrame(pte.PFN)
		r.m.Unref(pte.PFN)
		pte = PTE{PFN: pfn, Flags: FlagPresent | FlagWritable}
		r.pt[vpn] = pte
	}
	if write && pte.Flags&FlagWritable == 0 {
		r.readOnlies++
		return PTE{}, ErrReadOnly
	}
	return pte, nil
}

// access reads into or writes from buf at vaddr, page by page.
func (r *modelAS) access(vaddr uint64, buf []byte, write bool) error {
	for len(buf) > 0 {
		pte, err := r.page(PageOf(vaddr), write)
		if err != nil {
			return err
		}
		off := int(vaddr & (PageSize - 1))
		n := min(PageSize-off, len(buf))
		if write {
			r.m.WriteFrame(pte.PFN, off, buf[:n])
		} else {
			r.m.ReadFrame(pte.PFN, off, buf[:n])
		}
		buf, vaddr = buf[n:], vaddr+uint64(n)
	}
	return nil
}

// inRange returns the installed VPNs in [start, end), sorted.
func (r *modelAS) inRange(start, end uint64) []VPN {
	var vpns []VPN
	for vpn := range r.pt {
		if vpn.Base() >= start && vpn.Base() < end {
			vpns = append(vpns, vpn)
		}
	}
	slices.Sort(vpns)
	return vpns
}

func (r *modelAS) markCoW(start, end uint64) []PageRef {
	var snap []PageRef
	for _, vpn := range r.inRange(start, end) {
		pte := r.pt[vpn]
		pte.Flags = (pte.Flags | FlagCoW) &^ FlagWritable
		r.pt[vpn] = pte
		snap = append(snap, PageRef{vpn, pte.PFN})
	}
	return snap
}

func (r *modelAS) drop(start, end uint64) {
	for _, vpn := range r.inRange(start, end) {
		r.m.Unref(r.pt[vpn].PFN)
		delete(r.pt, vpn)
	}
}

// TestPageTableMatchesModel drives an AddressSpace and the reference with
// one seeded stream of MapAnon, Write, Read, InstallPTE, InstallShared,
// MarkCoW (with shadow references, so later stores break CoW), Unmap and
// Release over three adjacent VMAs — a writable heap, read-only text and
// writable data — and compares them after every step: every Lookup
// answer, MarkCoW snapshots, the bytes read, error classes and the live
// frame count.
func TestPageTableMatchesModel(t *testing.T) {
	cm := simtime.DefaultCostModel()

	// Prelude: two touched pages of eight are present, and only they are
	// snapshotted.
	{
		_, as := newAS(t)
		_ = as.MapAnon(0x10000, 0x10000+8*PageSize, SegHeap, true)
		_ = as.Write(0x10000, []byte{1})
		_ = as.Write(0x10000+3*PageSize, []byte{1})
		present := 0
		for vpn := PageOf(0x10000); vpn < PageOf(0x10000)+8; vpn++ {
			if pte, ok := as.Lookup(vpn); ok && pte.Present() {
				present++
			}
		}
		snap, _ := as.MarkCoW(0x10000, 0x10000+8*PageSize)
		want := []PageRef{{PageOf(0x10000), snap[0].PFN}, {PageOf(0x10000) + 3, snap[1].PFN}}
		if present != 2 || !slices.Equal(snap, want) {
			t.Fatalf("present = %d, snapshot %v; want 2 present, VPNs %#x and %#x", present, snap, want[0].VPN, want[1].VPN)
		}
	}

	const (
		ops       = 12000
		slotPages = 16
		base      = uint64(0x100000)
		slotSize  = slotPages * PageSize
		poolSize  = 4
		keepMarks = 4 // snapshots whose shadow references are held
	)
	slots := []struct {
		kind     VMAKind
		writable bool
	}{{SegHeap, true}, {SegText, false}, {SegData, true}}
	lo, hi := PageOf(base)-1, PageOf(base+uint64(len(slots))*slotSize)+1 // one page of margin each side

	rng := rand.New(rand.NewSource(20260805))
	m := NewMachine(0)
	as := NewAddressSpace(m, cm)
	ref := &modelAS{m: NewMachine(1), pt: make(map[VPN]PTE), vmas: make(map[uint64]VMA)}
	// A pool of frames the test itself references, like page-cache frames
	// shared into many address spaces.
	var pool []PFN
	for i := 0; i < poolSize; i++ {
		pool = append(pool, m.AllocFrame())
		ref.m.AllocFrame()
	}
	var shadows [][]PageRef
	randAddr := func() uint64 { return base + uint64(rng.Int63n(int64(len(slots))*slotSize)) }
	mapped := func(vpn VPN) bool { _, ok := ref.vma(vpn); return ok }
	sameErr := func(step int, what string, got, want error) {
		t.Helper()
		if (got == nil) != (want == nil) || want != nil && !errors.Is(got, want) {
			t.Fatalf("step %d: %s: err = %v, model %v", step, what, got, want)
		}
	}

	for step := 0; step < ops; step++ {
		switch op := rng.Intn(100); {
		case op < 10:
			k := rng.Intn(len(slots))
			start := base + uint64(k)*slotSize
			err := as.MapAnon(start, start+slotSize, slots[k].kind, slots[k].writable)
			var want error
			if _, ok := ref.vmas[start]; ok {
				want = ErrVMAOverlap
			} else {
				ref.vmas[start] = VMA{Start: start, End: start + slotSize, Kind: slots[k].kind, Writable: slots[k].writable}
			}
			sameErr(step, "MapAnon", err, want)
		case op < 38:
			// Stores may straddle pages and run from one VMA into the next.
			addr, data := randAddr(), make([]byte, 1+rng.Intn(PageSize+64))
			rng.Read(data)
			sameErr(step, "Write", as.Write(addr, data), ref.access(addr, data, true))
		case op < 62:
			addr, n := randAddr(), 1+rng.Intn(PageSize+64)
			got, want := make([]byte, n), make([]byte, n)
			err := as.Read(addr, got)
			sameErr(step, "Read", err, ref.access(addr, want, false))
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("step %d: Read(%#x, %d) bytes differ from the model", step, addr, n)
			}
		case op < 70:
			vpn := PageOf(randAddr())
			if !mapped(vpn) {
				continue
			}
			pte := PTE{PFN: m.AllocFrame(), Flags: FlagPresent}
			if rng.Intn(2) == 0 {
				pte.Flags |= FlagWritable
			}
			if want := ref.m.AllocFrame(); want != pte.PFN {
				t.Fatalf("step %d: AllocFrame = %d, model %d", step, pte.PFN, want)
			}
			as.InstallPTE(vpn, pte)
			ref.install(vpn, pte)
		case op < 78:
			vpn, pfn := PageOf(randAddr()), pool[rng.Intn(poolSize)]
			if !mapped(vpn) {
				continue
			}
			as.InstallShared(vpn, pfn)
			ref.m.Ref(pfn)
			ref.install(vpn, PTE{PFN: pfn, Flags: FlagPresent | FlagCoW})
		case op < 94:
			// Any page-aligned range over the slots, holes and margins
			// included; the kernel's shadow references keep the marked
			// frames alive past CoW breaks and unmaps.
			a, b := lo+VPN(rng.Intn(int(hi-lo))), lo+VPN(rng.Intn(int(hi-lo)))
			a, b = min(a, b), max(a, b)+1
			snap, err := as.MarkCoW(a.Base(), b.Base())
			if err != nil {
				t.Fatalf("step %d: MarkCoW: %v", step, err)
			}
			if want := ref.markCoW(a.Base(), b.Base()); !slices.Equal(snap, want) {
				t.Fatalf("step %d: MarkCoW[%#x,%#x) = %v, model %v", step, a.Base(), b.Base(), snap, want)
			}
			for _, p := range snap {
				m.Ref(p.PFN)
				ref.m.Ref(p.PFN)
			}
			if shadows = append(shadows, snap); len(shadows) > keepMarks {
				for _, p := range shadows[0] {
					m.Unref(p.PFN)
					ref.m.Unref(p.PFN)
				}
				shadows = shadows[1:]
			}
		case op < 99:
			k := rng.Intn(len(slots))
			start := base + uint64(k)*slotSize
			err := as.Unmap(start, start+slotSize)
			var want error = ErrBadRange
			if _, ok := ref.vmas[start]; ok {
				ref.drop(start, start+slotSize)
				delete(ref.vmas, start)
				want = nil
			}
			sameErr(step, "Unmap", err, want)
		default:
			as.Release()
			ref.drop(0, ^uint64(0))
			clear(ref.vmas)
		}

		for vpn := lo; vpn < hi; vpn++ {
			got, gotOK := as.Lookup(vpn)
			want, wantOK := ref.pt[vpn]
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d: Lookup(%#x) = (%+v,%v), model (%+v,%v)", step, vpn, got, gotOK, want, wantOK)
			}
		}
		if got, want := m.LiveFrames(), ref.m.LiveFrames(); got != want {
			t.Fatalf("step %d: LiveFrames = %d, model %d", step, got, want)
		}
	}
	if ref.cowBreaks == 0 || ref.segFaults == 0 || ref.readOnlies == 0 {
		t.Fatalf("stream too tame: %d CoW breaks, %d segfaults, %d read-only stores", ref.cowBreaks, ref.segFaults, ref.readOnlies)
	}
	t.Logf("%d ops: %d CoW breaks, %d segfaults, %d read-only stores, %d live frames",
		ops, ref.cowBreaks, ref.segFaults, ref.readOnlies, m.LiveFrames())
}
