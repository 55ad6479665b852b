package kernel

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// TestPageTableOrdersDeterministic pins the two page-table orders that
// leave the kernel: the auth reply's records and the order an address
// space frees its frames in. Both are pure functions of the page tables,
// so two identical registrations yield byte-identical replies (and
// respCache bytes), and releasing two identical address spaces on fresh
// machines leaves the same free list, hence the same later PFNs.
func TestPageTableOrdersDeterministic(t *testing.T) {
	const pages = 64
	const start, end = uint64(0x100000), uint64(0x100000 + pages*memsim.PageSize)

	reply := func() []byte {
		c := newCluster(t, 1)
		producerSetup(t, c, 0, start, end, []byte("ordered"))
		req := make([]byte, 40)
		binary.LittleEndian.PutUint64(req, 7)
		binary.LittleEndian.PutUint64(req[8:], 42)
		binary.LittleEndian.PutUint64(req[16:], start)
		binary.LittleEndian.PutUint64(req[24:], end)
		resp, err := c.kernels[0].handleAuth(simtime.NewMeter(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if a, b := reply(), reply(); !bytes.Equal(a, b) {
		t.Errorf("auth replies of identical registrations differ:\n%x\n%x", a, b)
	}

	allocsAfterRelease := func() []memsim.PFN {
		c := newCluster(t, 1)
		as := c.newAS(0)
		if err := as.MapAnon(start, end, memsim.SegHeap, true); err != nil {
			t.Fatal(err)
		}
		for a := start; a < end; a += memsim.PageSize {
			if err := as.Write(a, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		as.Release()
		pfns := make([]memsim.PFN, pages)
		for i := range pfns {
			pfns[i] = c.machines[0].AllocFrame()
		}
		return pfns
	}
	if a, b := allocsAfterRelease(), allocsAfterRelease(); !slices.Equal(a, b) {
		t.Errorf("AllocFrame after releasing identical address spaces differs:\n%v\n%v", a, b)
	}
}
