package kernel

import (
	"bytes"
	"errors"
	"testing"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// fabricPages returns the total pages moved by one-sided reads and
// doorbell batches.
func (c *cluster) fabricPages(t *testing.T) int {
	t.Helper()
	_, _, _, bytesRead := c.fabric.Stats()
	if bytesRead%memsim.PageSize != 0 {
		t.Fatalf("fabric moved a partial page: %d bytes", bytesRead)
	}
	return int(bytesRead / memsim.PageSize)
}

func readAll(t *testing.T, as *memsim.AddressSpace, start, end uint64) []byte {
	t.Helper()
	out := make([]byte, 0, end-start)
	buf := make([]byte, memsim.PageSize)
	for a := start; a < end; a += memsim.PageSize {
		if err := as.Read(a, buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf...)
	}
	return out
}

// TestFanOutSingleFabricReadPerPage is the tentpole's headline property:
// co-located consumers of one producer state fetch each page over the
// fabric exactly once; later consumers install the cached frame CoW-shared.
func TestFanOutSingleFabricReadPerPage(t *testing.T) {
	c := newCluster(t, 2)
	c.enableCaches(64<<20, DefaultReadaheadMax)
	const start, end = uint64(0x100000), uint64(0x104000) // 4 pages
	_, meta := producerSetup(t, c, 0, start, end, []byte("fanout-producer!"))

	cons1 := c.newAS(1)
	mp1, err := c.kernels[1].Rmap(cons1, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		t.Fatal(err)
	}
	first := readAll(t, cons1, start, end)
	if got := c.fabricPages(t); got != 4 {
		t.Fatalf("first consumer moved %d pages over the fabric, want 4", got)
	}

	cons2 := c.newAS(1)
	mp2, err := c.kernels[1].Rmap(cons2, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		t.Fatal(err)
	}
	second := readAll(t, cons2, start, end)
	if got := c.fabricPages(t); got != 4 {
		t.Fatalf("second consumer refetched: %d pages total, want still 4", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("consumers read different bytes")
	}
	s := c.kernels[1].CacheStats()
	if s.Hits < 4 {
		t.Errorf("cache hits = %d, want ≥ 4", s.Hits)
	}

	// Byte isolation (CoW break): a write in one consumer is invisible to
	// the other and to later cache hits.
	if err := cons2.Write(start, []byte("OVERWRITTEN!")); err != nil {
		t.Fatal(err)
	}
	again := readAll(t, cons1, start, end)
	if !bytes.Equal(first, again) {
		t.Fatal("consumer 2's write leaked into consumer 1")
	}
	got := make([]byte, 12)
	if err := cons2.Read(start, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "OVERWRITTEN!" {
		t.Errorf("consumer 2 lost its own write: %q", got)
	}
	cons3 := c.newAS(1)
	mp3, err := c.kernels[1].Rmap(cons3, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		t.Fatal(err)
	}
	third := readAll(t, cons3, start, end)
	if !bytes.Equal(first, third) {
		t.Fatal("cached frame was dirtied by a consumer write")
	}
	if got := c.fabricPages(t); got != 4 {
		t.Fatalf("third consumer refetched: %d pages total, want still 4", got)
	}

	// Teardown releases everything: unmap the consumers, deregister (which
	// broadcasts invalidation like the platform does), and the consumer
	// machine is back to zero live frames.
	for _, k := range c.kernels {
		k.OnDeregister = func(mac memsim.MachineID, below uint64) {
			for _, kk := range c.kernels {
				kk.PageCache().InvalidateBelow(mac, below)
			}
		}
	}
	for _, mp := range []*Mapping{mp1, mp2, mp3} {
		if err := mp.Unmap(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.kernels[0].DeregisterMem(meta.ID, meta.Key); err != nil {
		t.Fatal(err)
	}
	if c.kernels[1].PageCache().Len() != 0 {
		t.Error("deregister_mem broadcast left cache entries")
	}
	if n := c.machines[1].LiveFrames(); n != 0 {
		t.Errorf("consumer machine leaks %d frames", n)
	}
}

// TestReadaheadCoalescesSequentialFaults: a sequential scan over a dense
// mapping pays a handful of doorbell batches, not one roundtrip per page.
func TestReadaheadCoalescesSequentialFaults(t *testing.T) {
	c := newCluster(t, 2)
	c.enableCaches(64<<20, DefaultReadaheadMax)
	const pages = 64
	const start = uint64(0x100000)
	end := start + pages*memsim.PageSize
	_, meta := producerSetup(t, c, 0, start, end, []byte("sequential-scan!"))

	cons := c.newAS(1)
	if _, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End); err != nil {
		t.Fatal(err)
	}
	seq := readAll(t, cons, start, end)
	reads, batches, _, _ := c.fabric.Stats()
	if got := c.fabricPages(t); got != pages {
		t.Fatalf("fabric moved %d pages, want %d", got, pages)
	}
	if roundtrips := reads + batches; roundtrips > 10 {
		t.Errorf("sequential scan took %d roundtrips for %d pages (readahead not coalescing)", roundtrips, pages)
	}
	if ra := c.kernels[1].ReadaheadPages(); ra == 0 {
		t.Error("readahead fetched no pages on a sequential scan")
	}
	if meter := cons.Meter(); meter.Get(simtime.CatReadahead) == 0 {
		t.Error("readahead batches charged nothing to CatReadahead")
	}

	// Equivalence: the same scan with readahead (and cache) disabled reads
	// identical bytes, one roundtrip per page.
	c2 := newCluster(t, 2)
	_, meta2 := producerSetup(t, c2, 0, start, end, []byte("sequential-scan!"))
	cons2 := c2.newAS(1)
	if _, err := c2.kernels[1].Rmap(cons2, meta2.Machine, meta2.ID, meta2.Key, meta2.Start, meta2.End); err != nil {
		t.Fatal(err)
	}
	plain := readAll(t, cons2, start, end)
	if !bytes.Equal(seq, plain) {
		t.Fatal("readahead changed the bytes read")
	}
	reads2, batches2, _, _ := c2.fabric.Stats()
	if reads2 != pages || batches2 != 0 {
		t.Errorf("baseline: %d reads %d batches, want %d/0", reads2, batches2, pages)
	}
}

// TestReadaheadResetsOnRandomAccess: a strided access pattern must not keep
// a wide window — each stride break resets it to one page.
func TestReadaheadResetsOnRandomAccess(t *testing.T) {
	c := newCluster(t, 2)
	c.enableCaches(64<<20, DefaultReadaheadMax)
	const pages = 32
	const start = uint64(0x100000)
	end := start + pages*memsim.PageSize
	_, meta := producerSetup(t, c, 0, start, end, []byte("strided-access!!"))

	cons := c.newAS(1)
	if _, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End); err != nil {
		t.Fatal(err)
	}
	// Touch every fourth page: never two sequential faults in a row.
	buf := make([]byte, 8)
	for i := 0; i < pages; i += 4 {
		if err := cons.Read(start+uint64(i)*memsim.PageSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.fabricPages(t), pages/4; got != want {
		t.Errorf("strided scan fetched %d pages, want %d (window must reset)", got, want)
	}
}

// TestCacheSkipsRPCPaging: the Fig 15 RPC ablation must keep paying one RPC
// per page per consumer — caching it would erase the effect being measured.
func TestCacheSkipsRPCPaging(t *testing.T) {
	c := newCluster(t, 2)
	c.enableCaches(64<<20, DefaultReadaheadMax)
	const start, end = uint64(0x100000), uint64(0x102000)
	_, meta := producerSetup(t, c, 0, start, end, []byte("rpc-paging-path!"))

	for i := 0; i < 2; i++ {
		cons := c.newAS(1)
		mp, err := c.kernels[1].RmapMeta(cons, meta, 0, PagingRPC)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, cons, start, end)
		if err := mp.Unmap(); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.kernels[1].CacheStats(); s.Hits != 0 || s.Inserts != 0 {
		t.Errorf("RPC paging touched the page cache: %+v", s)
	}
}

// TestPrefetchPopulatesCache: an explicit Prefetch fills the cache, so a
// second co-located consumer's prefetch moves nothing over the fabric.
func TestPrefetchPopulatesCache(t *testing.T) {
	c := newCluster(t, 2)
	c.enableCaches(64<<20, DefaultReadaheadMax)
	const start, end = uint64(0x100000), uint64(0x104000)
	_, meta := producerSetup(t, c, 0, start, end, []byte("prefetch-shared!"))

	var res [2][]byte
	for i := 0; i < 2; i++ {
		cons := c.newAS(1)
		mp, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
		if err != nil {
			t.Fatal(err)
		}
		if err := mp.PrefetchRange(start, end); err != nil {
			t.Fatal(err)
		}
		res[i] = readAll(t, cons, start, end)
	}
	if got := c.fabricPages(t); got != 4 {
		t.Errorf("two prefetching consumers moved %d pages, want 4", got)
	}
	if !bytes.Equal(res[0], res[1]) {
		t.Error("prefetched consumers read different bytes")
	}
}

// TestDeregisterBumpsGeneration: a registration created after a dereg gets
// a higher generation, so its consumers can never hit frames cached from
// the reclaimed one even without an invalidation broadcast.
func TestDeregisterBumpsGeneration(t *testing.T) {
	c := newCluster(t, 2)
	c.enableCaches(64<<20, 0)
	const start, end = uint64(0x100000), uint64(0x101000)
	as, meta := producerSetup(t, c, 0, start, end, []byte("generation-one!!"))

	cons := c.newAS(1)
	mp1, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, cons, start, end)
	if err := mp1.Unmap(); err != nil {
		t.Fatal(err)
	}
	if err := c.kernels[0].DeregisterMem(meta.ID, meta.Key); err != nil {
		t.Fatal(err)
	}

	if err := as.Write(start, []byte("generation-two!!")); err != nil {
		t.Fatal(err)
	}
	meta2, err := c.kernels[0].RegisterMem(as, meta.ID, meta.Key, start, end)
	if err != nil {
		t.Fatal(err)
	}
	cons2 := c.newAS(1)
	mp2, err := c.kernels[1].Rmap(cons2, meta2.Machine, meta2.ID, meta2.Key, meta2.Start, meta2.End)
	if err != nil {
		t.Fatal(err)
	}
	if mp2.Generation() <= mp1.Generation() {
		t.Fatalf("generation did not advance: %d then %d", mp1.Generation(), mp2.Generation())
	}
	got := make([]byte, 16)
	if err := cons2.Read(start, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "generation-two!!" {
		t.Errorf("stale cache hit across deregister: %q", got)
	}
}

// TestFailoverKeepsCachedFrames: frames cached from a producer that later
// crashed stay valid hits for a failed-over consumer — generation fencing
// (the replica serves the same generation) keeps them honest, so failover
// costs zero extra fabric reads for already-cached pages.
func TestFailoverKeepsCachedFrames(t *testing.T) {
	c := newCluster(t, 3)
	c.enableCaches(64<<20, 0)
	s := c.withSim()
	c.kernels[0].EnableReplication([]memsim.MachineID{1}, s.After)

	const start, end = uint64(0x100000), uint64(0x104000) // 4 pages
	_, meta := producerSetup(t, c, 0, start, end, []byte("cached-failover!"))
	s.Run()

	// First consumer on machine 2 pulls every page into m2's cache.
	cons1 := c.newAS(2)
	mp1, err := c.kernels[2].RmapMeta(cons1, meta, 0, PagingRDMA)
	if err != nil {
		t.Fatal(err)
	}
	want := readAll(t, cons1, start, end)
	if mp1.FailedOver() {
		t.Fatal("healthy rmap failed over")
	}

	// Producer dies. The platform retains cached pages when replication is
	// on; at kernel level nothing invalidates, matching that policy.
	c.machines[0].Crash()

	cons2 := c.newAS(2)
	mp2, err := c.kernels[2].RmapMeta(cons2, meta, 0, PagingRDMA)
	if err != nil {
		t.Fatal(err)
	}
	if !mp2.FailedOver() {
		t.Fatal("rmap of dead producer did not fail over")
	}
	hitsBefore := c.kernels[2].CacheStats().Hits
	before := c.fabricPages(t)
	got := readAll(t, cons2, start, end)
	if !bytes.Equal(got, want) {
		t.Fatal("failed-over consumer read different bytes")
	}
	if moved := c.fabricPages(t) - before; moved != 0 {
		t.Fatalf("failed-over reads moved %d pages despite warm cache", moved)
	}
	if hits := c.kernels[2].CacheStats().Hits - hitsBefore; hits != 4 {
		t.Fatalf("cache hits after failover = %d, want 4", hits)
	}
}

// TestLeaseExpiryBroadcastInvalidation: wiring OnLeaseExpired to the page
// cache drops a suspect machine's cached frames exactly like the
// OnDeregister broadcast does for reclaimed ones.
func TestLeaseExpiryBroadcastInvalidation(t *testing.T) {
	c := newCluster(t, 2)
	c.enableCaches(64<<20, 0)
	k := c.kernels[1]
	var now simtime.Time
	k.Clock = func() simtime.Time { return now }
	k.EnableLeases(100 * simtime.Microsecond)
	k.OnLeaseExpired = func(peer memsim.MachineID) {
		k.PageCache().InvalidateMachine(peer)
	}

	const start, end = uint64(0x100000), uint64(0x104000)
	_, meta := producerSetup(t, c, 0, start, end, []byte("lease-cached-pg!"))
	cons := c.newAS(1)
	if _, err := k.Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End); err != nil {
		t.Fatal(err)
	}
	readAll(t, cons, start, end)
	if k.PageCache().Len() != 4 {
		t.Fatalf("cache holds %d pages, want 4", k.PageCache().Len())
	}

	now = simtime.Time(200 * simtime.Microsecond)
	k.ProbeFailed(0, errors.New("probe timeout"))
	if k.PageCache().Len() != 0 {
		t.Fatalf("lease expiry left %d pages cached", k.PageCache().Len())
	}
	// The expiry fired once; a repeat failure must not re-broadcast.
	k.ProbeFailed(0, errors.New("probe timeout"))
	if k.LeaseExpiries() != 1 {
		t.Fatalf("lease expiries = %d, want 1", k.LeaseExpiries())
	}
}

// TestSubPageBudgetFault: a cache budget below one page admits nothing for
// long — every fetched page is evicted by the trim that follows its
// install — but the address space must already hold its reference by then.
// Evicting before the install (the old single-page order) freed the frame
// the page table was about to map and panicked with "bad PFN".
func TestSubPageBudgetFault(t *testing.T) {
	const pages = 8
	const start = uint64(0x100000)
	end := start + pages*memsim.PageSize
	pattern := []byte("sub-page-budget!")
	for _, tc := range []struct {
		name     string
		raMax    int
		prefetch bool
	}{
		{"demand", 1, false},
		{"readahead", DefaultReadaheadMax, false},
		{"prefetch", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 2)
			c.enableCaches(1, tc.raMax)
			_, meta := producerSetup(t, c, 0, start, end, pattern)
			cons := c.newAS(1)
			mp, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
			if err != nil {
				t.Fatal(err)
			}
			if tc.prefetch {
				if err := mp.PrefetchRange(start, end); err != nil {
					t.Fatal(err)
				}
			}
			got := readAll(t, cons, start, end)
			for p := 0; p < pages; p++ {
				if page := got[p*memsim.PageSize:]; !bytes.Equal(page[:len(pattern)], pattern) {
					t.Fatalf("page %d reads %q, want %q", p, page[:len(pattern)], pattern)
				}
			}
			if tc.prefetch && cons.Faults() != 0 {
				t.Errorf("%d faults after a full prefetch", cons.Faults())
			}
			if got := c.fabricPages(t); got != pages {
				t.Errorf("fabric moved %d pages, want %d", got, pages)
			}
			pc := c.kernels[1].PageCache()
			if s := pc.Stats(); pc.Len() != 0 || s.LiveBytes != 0 || s.Evictions != pages {
				t.Errorf("cache holds %d pages, stats %+v; want empty with %d evictions", pc.Len(), s, pages)
			}
			cons.Release()
			if n := c.machines[1].LiveFrames(); n != 0 {
				t.Errorf("consumer machine leaks %d frames", n)
			}
		})
	}
}
