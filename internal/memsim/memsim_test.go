package memsim

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"rmmap/internal/simtime"
)

func newAS(t *testing.T) (*Machine, *AddressSpace) {
	t.Helper()
	m := NewMachine(0)
	return m, NewAddressSpace(m, simtime.DefaultCostModel())
}

func TestFrameAllocFreeReuse(t *testing.T) {
	m := NewMachine(1)
	a := m.AllocFrame()
	b := m.AllocFrame()
	if a == b {
		t.Fatal("duplicate PFNs")
	}
	if m.LiveFrames() != 2 {
		t.Errorf("live = %d, want 2", m.LiveFrames())
	}
	m.Unref(a)
	if m.LiveFrames() != 1 {
		t.Errorf("live after free = %d", m.LiveFrames())
	}
	c := m.AllocFrame()
	if c != a {
		t.Errorf("free list not reused: got %d want %d", c, a)
	}
	if m.PeakFrames() != 2 {
		t.Errorf("peak = %d, want 2", m.PeakFrames())
	}
}

func TestFrameRefcount(t *testing.T) {
	m := NewMachine(1)
	p := m.AllocFrame()
	m.Ref(p)
	if m.Refs(p) != 2 {
		t.Errorf("refs = %d, want 2", m.Refs(p))
	}
	m.Unref(p)
	if m.LiveFrames() != 1 {
		t.Error("frame freed while referenced")
	}
	m.Unref(p)
	if m.LiveFrames() != 0 {
		t.Error("frame not freed at zero refs")
	}
}

func TestFrameRefcountUnderflowPanics(t *testing.T) {
	m := NewMachine(1)
	p := m.AllocFrame()
	m.Unref(p)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on underflow")
		}
	}()
	m.Unref(p)
}

func TestReadWriteRoundtrip(t *testing.T) {
	_, as := newAS(t)
	if err := as.MapAnon(0x10000, 0x20000, SegHeap, true); err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello, remote memory map")
	if err := as.Write(0x10ff0, msg); err != nil { // crosses a page boundary
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := as.Read(0x10ff0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("roundtrip = %q, want %q", got, msg)
	}
}

func TestDemandZero(t *testing.T) {
	_, as := newAS(t)
	if err := as.MapAnon(0x10000, 0x11000, SegHeap, true); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	for i := range buf {
		buf[i] = 0xff
	}
	if err := as.Read(0x10000, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}
}

func TestSegFault(t *testing.T) {
	_, as := newAS(t)
	err := as.Read(0xdead000, make([]byte, 1))
	if !errors.Is(err, ErrSegFault) {
		t.Errorf("err = %v, want ErrSegFault", err)
	}
	err = as.Write(0xdead000, []byte{1})
	if !errors.Is(err, ErrSegFault) {
		t.Errorf("write err = %v, want ErrSegFault", err)
	}
}

func TestReadOnlyVMA(t *testing.T) {
	_, as := newAS(t)
	if err := as.MapAnon(0x10000, 0x11000, SegText, false); err != nil {
		t.Fatal(err)
	}
	if err := as.Read(0x10000, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	err := as.Write(0x10000, []byte{1})
	if !errors.Is(err, ErrReadOnly) {
		t.Errorf("err = %v, want ErrReadOnly", err)
	}
}

func TestVMAOverlapRejected(t *testing.T) {
	_, as := newAS(t)
	if err := as.MapAnon(0x10000, 0x20000, SegHeap, true); err != nil {
		t.Fatal(err)
	}
	err := as.MapAnon(0x18000, 0x28000, SegRmap, false)
	if !errors.Is(err, ErrVMAOverlap) {
		t.Errorf("err = %v, want ErrVMAOverlap", err)
	}
	// Adjacent is fine.
	if err := as.MapAnon(0x20000, 0x30000, SegRmap, false); err != nil {
		t.Errorf("adjacent VMA rejected: %v", err)
	}
}

func TestBadRange(t *testing.T) {
	_, as := newAS(t)
	if err := as.MapAnon(0x10001, 0x20000, SegHeap, true); !errors.Is(err, ErrBadRange) {
		t.Errorf("unaligned start: %v", err)
	}
	if err := as.MapAnon(0x20000, 0x10000, SegHeap, true); !errors.Is(err, ErrBadRange) {
		t.Errorf("inverted range: %v", err)
	}
}

func TestCoWIsolation(t *testing.T) {
	// The heart of RMMAP's coherency model: after MarkCoW, producer writes
	// must not be visible through the snapshot frames.
	m, as := newAS(t)
	if err := as.MapAnon(0x10000, 0x12000, SegHeap, true); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(0x10000, []byte("original")); err != nil {
		t.Fatal(err)
	}
	snap, err := as.MarkCoW(0x10000, 0x12000)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || snap[0].VPN != PageOf(0x10000) {
		t.Fatalf("snapshot = %v, want the one touched page", snap)
	}
	sharedPFN := snap[0].PFN
	m.Ref(sharedPFN) // kernel shadow reference

	// Producer overwrites: must trigger CoW break.
	if err := as.Write(0x10000, []byte("MUTATED!")); err != nil {
		t.Fatal(err)
	}
	// The shadow frame still holds the original bytes.
	got := make([]byte, 8)
	m.ReadFrame(sharedPFN, 0, got)
	if string(got) != "original" {
		t.Errorf("shadow frame = %q, want %q", got, "original")
	}
	// The producer sees its own write.
	if err := as.Read(0x10000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "MUTATED!" {
		t.Errorf("producer view = %q, want MUTATED!", got)
	}
	m.Unref(sharedPFN)
}

func TestMarkCoWChargesPresentPagesOnly(t *testing.T) {
	_, as := newAS(t)
	meter := simtime.NewMeter()
	as.SetMeter(meter)
	if err := as.MapAnon(0x10000, 0x10000+16*PageSize, SegHeap, true); err != nil {
		t.Fatal(err)
	}
	// Touch 5 of 16 pages; marking charges only those (untouched pages
	// have no PTE to mark).
	for i := 0; i < 5; i++ {
		if err := as.Write(0x10000+uint64(i)*PageSize, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	meter.Reset()
	if _, err := as.MarkCoW(0x10000, 0x10000+16*PageSize); err != nil {
		t.Fatal(err)
	}
	want := simtime.Scale(simtime.DefaultCostModel().CoWMarkPerPage, 5)
	if got := meter.Get(simtime.CatRegister); got != want {
		t.Errorf("register charge = %v, want %v", got, want)
	}
}

func TestUnmapReleasesFrames(t *testing.T) {
	m, as := newAS(t)
	if err := as.MapAnon(0x10000, 0x14000, SegHeap, true); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0x10000); a < 0x14000; a += PageSize {
		if err := as.Write(a, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if m.LiveFrames() != 4 {
		t.Fatalf("live = %d, want 4", m.LiveFrames())
	}
	if err := as.Unmap(0x10000, 0x14000); err != nil {
		t.Fatal(err)
	}
	if m.LiveFrames() != 0 {
		t.Errorf("live after unmap = %d, want 0", m.LiveFrames())
	}
	if err := as.Read(0x10000, make([]byte, 1)); !errors.Is(err, ErrSegFault) {
		t.Errorf("read after unmap: %v, want segfault", err)
	}
}

func TestReleaseKeepsShadowFrames(t *testing.T) {
	m, as := newAS(t)
	if err := as.MapAnon(0x10000, 0x11000, SegHeap, true); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(0x10000, []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	snap, _ := as.MarkCoW(0x10000, 0x11000)
	pfn := snap[0].PFN
	m.Ref(pfn) // kernel shadow
	as.Release()
	if m.LiveFrames() != 1 {
		t.Fatalf("live = %d, want 1 (shadow survives container exit)", m.LiveFrames())
	}
	got := make([]byte, 8)
	m.ReadFrame(pfn, 0, got)
	if string(got) != "survivor" {
		t.Errorf("shadow = %q", got)
	}
	m.Unref(pfn)
}

func TestFindVMA(t *testing.T) {
	_, as := newAS(t)
	_ = as.MapAnon(0x10000, 0x20000, SegHeap, true)
	_ = as.MapAnon(0x40000, 0x50000, SegStack, true)
	if v := as.FindVMA(0x15000); v == nil || v.Kind != SegHeap {
		t.Errorf("FindVMA(0x15000) = %+v", v)
	}
	if v := as.FindVMA(0x30000); v != nil {
		t.Errorf("FindVMA(hole) = %+v, want nil", v)
	}
	if v := as.FindVMA(0x4ffff); v == nil || v.Kind != SegStack {
		t.Errorf("FindVMA(stack end) = %+v", v)
	}
	if v := as.FindVMA(0x50000); v != nil {
		t.Errorf("FindVMA(end) should be exclusive, got %+v", v)
	}
}

func TestUint64Accessors(t *testing.T) {
	_, as := newAS(t)
	_ = as.MapAnon(0x10000, 0x11000, SegHeap, true)
	if err := as.WriteUint64(0x10008, 0xdeadbeefcafe1234); err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadUint64(0x10008)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeefcafe1234 {
		t.Errorf("got %#x", v)
	}
}

func TestCustomFaultHandler(t *testing.T) {
	m, as := newAS(t)
	calls := 0
	err := as.AddVMA(&VMA{
		Start: 0x70000, End: 0x71000, Kind: SegRmap, Writable: false,
		Fault: func(as *AddressSpace, vaddr uint64, ft FaultType) error {
			calls++
			pfn := m.AllocFrame()
			m.WriteFrame(pfn, 0, []byte("remote page content"))
			as.InstallPTE(PageOf(vaddr), PTE{PFN: pfn, Flags: FlagPresent})
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 19)
	if err := as.Read(0x70000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "remote page content" {
		t.Errorf("got %q", buf)
	}
	if err := as.Read(0x70000, buf); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("handler called %d times, want 1 (page cached)", calls)
	}
	if as.Faults() != 1 {
		t.Errorf("fault count = %d", as.Faults())
	}
}

func TestPageOfBase(t *testing.T) {
	if PageOf(0x1fff) != 1 {
		t.Errorf("PageOf(0x1fff) = %d", PageOf(0x1fff))
	}
	if VPN(3).Base() != 3*PageSize {
		t.Errorf("Base = %#x", VPN(3).Base())
	}
}

// Property: write-then-read returns the written bytes for arbitrary
// (offset, payload) within a mapped region, including page-straddling ones.
func TestReadWriteProperty(t *testing.T) {
	_, as := newAS(t)
	const base, size = uint64(0x100000), uint64(64 * PageSize)
	if err := as.MapAnon(base, base+size, SegHeap, true); err != nil {
		t.Fatal(err)
	}
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := base + uint64(off)%(size-uint64(len(data)))
		if as.Write(addr, data) != nil {
			return false
		}
		got := make([]byte, len(data))
		if as.Read(addr, got) != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: machine live-frame accounting never goes negative and peak is
// monotone ≥ live across arbitrary alloc/free sequences.
func TestFrameAccountingProperty(t *testing.T) {
	f := func(ops []bool) bool {
		m := NewMachine(9)
		var held []PFN
		for _, alloc := range ops {
			if alloc || len(held) == 0 {
				held = append(held, m.AllocFrame())
			} else {
				m.Unref(held[len(held)-1])
				held = held[:len(held)-1]
			}
			if m.LiveFrames() != len(held) || m.PeakFrames() < m.LiveFrames() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
