package kernel

import (
	"bytes"
	"testing"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// enableCaches turns the page cache + readahead on for every kernel of the
// test cluster (the kernel-level default is off).
func (c *cluster) enableCaches(budget int64, raMax int) {
	for _, k := range c.kernels {
		k.EnablePageCache(budget)
		k.SetReadahead(raMax)
	}
}

// cacheInsert admits one page the way the fault path does (admit, then
// trim) and returns the canonical frame.
func cacheInsert(pc *PageCache, meter *simtime.Meter, cm *simtime.CostModel, mac memsim.MachineID, pfn memsim.PFN, gen uint64, local memsim.PFN) memsim.PFN {
	canon := make([]memsim.PFN, 1)
	pc.InsertBatch(mac, gen, []memsim.PFN{pfn}, []memsim.PFN{local}, canon)
	pc.TrimToBudget(meter, cm)
	return canon[0]
}

func TestPageCacheLRUEviction(t *testing.T) {
	m := memsim.NewMachine(0)
	cm := simtime.DefaultCostModel()
	pc := NewPageCache(m, 2*memsim.PageSize)
	meter := simtime.NewMeter()

	frames := make([]memsim.PFN, 3)
	for i := range frames {
		frames[i] = m.AllocFrame()
		cacheInsert(pc, meter, cm, 1, memsim.PFN(100+i), 0, frames[i])
	}
	if got := pc.Len(); got != 2 {
		t.Fatalf("cache holds %d pages, want 2 (budget)", got)
	}
	s := pc.Stats()
	if s.Evictions != 1 || s.LiveBytes != 2*memsim.PageSize {
		t.Fatalf("stats = %+v, want 1 eviction and 2 pages live", s)
	}
	// The oldest entry (pfn 100) was evicted and its frame freed.
	if _, ok := pc.Lookup(1, 100, 0); ok {
		t.Error("evicted page still cached")
	}
	if m.LiveFrames() != 2 {
		t.Errorf("machine holds %d frames, want 2", m.LiveFrames())
	}
	if meter.Get(simtime.CatCache) == 0 {
		t.Error("eviction charged nothing to CatCache")
	}
}

func TestPageCacheRecency(t *testing.T) {
	m := memsim.NewMachine(0)
	cm := simtime.DefaultCostModel()
	pc := NewPageCache(m, 2*memsim.PageSize)
	cacheInsert(pc, nil, cm, 1, 100, 0, m.AllocFrame())
	cacheInsert(pc, nil, cm, 1, 101, 0, m.AllocFrame())
	// Touch 100 so 101 becomes LRU, then overflow.
	if _, ok := pc.Lookup(1, 100, 0); !ok {
		t.Fatal("expected hit on pfn 100")
	}
	cacheInsert(pc, nil, cm, 1, 102, 0, m.AllocFrame())
	if _, ok := pc.Lookup(1, 100, 0); !ok {
		t.Error("recently used page evicted")
	}
	if pc.Contains(1, 101, 0) {
		t.Error("LRU page survived over-budget insert")
	}
}

func TestPageCacheGenerationMismatch(t *testing.T) {
	m := memsim.NewMachine(0)
	pc := NewPageCache(m, 8*memsim.PageSize)
	cacheInsert(pc, nil, simtime.DefaultCostModel(), 1, 100, 1, m.AllocFrame())
	if _, ok := pc.Lookup(1, 100, 2); ok {
		t.Error("hit across generations: a reused PFN would serve stale bytes")
	}
	if _, ok := pc.Lookup(1, 100, 1); !ok {
		t.Error("same-generation lookup missed")
	}
}

func TestPageCacheInvalidation(t *testing.T) {
	m := memsim.NewMachine(0)
	cm := simtime.DefaultCostModel()
	pc := NewPageCache(m, 64*memsim.PageSize)
	cacheInsert(pc, nil, cm, 1, 100, 1, m.AllocFrame())
	cacheInsert(pc, nil, cm, 1, 101, 2, m.AllocFrame())
	cacheInsert(pc, nil, cm, 2, 100, 1, m.AllocFrame())

	pc.InvalidateBelow(1, 2) // drops (1,100,gen1) only
	if pc.Contains(1, 100, 1) || !pc.Contains(1, 101, 2) || !pc.Contains(2, 100, 1) {
		t.Fatalf("InvalidateBelow dropped the wrong entries (len=%d)", pc.Len())
	}
	pc.InvalidateMachine(2)
	if pc.Contains(2, 100, 1) {
		t.Error("InvalidateMachine left an entry")
	}
	if pc.MachineBytes(2) != 0 || pc.MachineBytes(1) != memsim.PageSize {
		t.Errorf("MachineBytes: m2=%d m1=%d", pc.MachineBytes(2), pc.MachineBytes(1))
	}
	// Invalidation released the frames (the survivor keeps one).
	if m.LiveFrames() != 1 {
		t.Errorf("machine holds %d frames, want 1", m.LiveFrames())
	}
}

func TestPageCacheInsertRaceKeepsCanonical(t *testing.T) {
	m := memsim.NewMachine(0)
	cm := simtime.DefaultCostModel()
	pc := NewPageCache(m, 64*memsim.PageSize)
	first := m.AllocFrame()
	m.WriteFrame(first, 0, []byte("canonical"))
	cacheInsert(pc, nil, cm, 1, 100, 0, first)
	dup := m.AllocFrame()
	got := cacheInsert(pc, nil, cm, 1, 100, 0, dup)
	if got != first {
		t.Fatalf("duplicate insert returned %d, want canonical %d", got, first)
	}
	if m.LiveFrames() != 1 {
		t.Errorf("duplicate frame not released: %d live", m.LiveFrames())
	}
	buf := make([]byte, 9)
	m.ReadFrame(got, 0, buf)
	if !bytes.Equal(buf, []byte("canonical")) {
		t.Errorf("canonical frame bytes = %q", buf)
	}
}

// A 10k-entry cache must invalidate one producer by walking only that
// producer's entries — the per-producer index keeps crash/deregister
// invalidation O(entries of that producer) instead of a full-cache scan.
func TestPageCacheInvalidationScansOneProducer(t *testing.T) {
	const producers = 10
	const perProducer = 1000
	m := memsim.NewMachine(0)
	cm := simtime.DefaultCostModel()
	pc := NewPageCache(m, producers*perProducer*memsim.PageSize)
	for p := 0; p < producers; p++ {
		for i := 0; i < perProducer; i++ {
			cacheInsert(pc, nil, cm, memsim.MachineID(p+1), memsim.PFN(i), 1, m.AllocFrame())
		}
	}
	if got := pc.Len(); got != producers*perProducer {
		t.Fatalf("cache holds %d pages, want %d", got, producers*perProducer)
	}

	before := pc.InvalScanned()
	pc.InvalidateBelow(3, 2) // drop producer 3's gen-1 entries
	scanned := pc.InvalScanned() - before
	if scanned != perProducer {
		t.Errorf("invalidation scanned %d entries, want %d (one producer)", scanned, perProducer)
	}
	if got := pc.Len(); got != (producers-1)*perProducer {
		t.Errorf("cache holds %d pages after invalidation, want %d", got, (producers-1)*perProducer)
	}
	if pc.MachineBytes(3) != 0 {
		t.Errorf("producer 3 still holds %d cached bytes", pc.MachineBytes(3))
	}
	// Every other producer's entries are untouched.
	for p := 1; p <= producers; p++ {
		if p == 3 {
			continue
		}
		if got := pc.MachineBytes(memsim.MachineID(p)); got != perProducer*memsim.PageSize {
			t.Errorf("producer %d holds %d cached bytes, want %d", p, got, perProducer*memsim.PageSize)
		}
	}
	if got := m.LiveFrames(); got != (producers-1)*perProducer {
		t.Errorf("machine holds %d frames, want %d (invalidated frames freed)", got, (producers-1)*perProducer)
	}

	// A crash invalidation is equally targeted.
	before = pc.InvalScanned()
	pc.InvalidateMachine(7)
	if scanned := pc.InvalScanned() - before; scanned != perProducer {
		t.Errorf("crash invalidation scanned %d entries, want %d", scanned, perProducer)
	}
	if got := pc.Len(); got != (producers-2)*perProducer {
		t.Errorf("cache holds %d pages after crash invalidation, want %d", got, (producers-2)*perProducer)
	}
}
