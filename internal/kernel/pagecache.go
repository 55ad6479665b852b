package kernel

import (
	"sync"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// Default page-cache tuning used by platform clusters. Kernel-level users
// opt in explicitly via EnablePageCache/SetReadahead.
const (
	// DefaultPageCacheBytes is the per-machine remote page cache budget.
	DefaultPageCacheBytes = 64 << 20
	// DefaultReadaheadMax caps the adaptive readahead window, in pages.
	DefaultReadaheadMax = 32
)

// CacheStats snapshots one machine's remote-page-cache activity. LiveBytes
// is the cache's current footprint; the counters are cumulative.
type CacheStats struct {
	Hits           int64
	Misses         int64
	Inserts        int64
	Evictions      int64
	ReadaheadPages int64
	LiveBytes      int64
}

// Add accumulates o into s (cluster-wide aggregation).
func (s CacheStats) Add(o CacheStats) CacheStats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Inserts += o.Inserts
	s.Evictions += o.Evictions
	s.ReadaheadPages += o.ReadaheadPages
	s.LiveBytes += o.LiveBytes
	return s
}

// Sub returns the counter deltas s−o (per-span attribution). LiveBytes is
// the net footprint change over the interval.
func (s CacheStats) Sub(o CacheStats) CacheStats {
	s.Hits -= o.Hits
	s.Misses -= o.Misses
	s.Inserts -= o.Inserts
	s.Evictions -= o.Evictions
	s.ReadaheadPages -= o.ReadaheadPages
	s.LiveBytes -= o.LiveBytes
	return s
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// cacheKey identifies a remote page: the producer machine, its physical
// frame number there, and the registration generation. The generation makes
// stale entries unreachable after deregister_mem: a producer PFN reused by
// a later registration carries a higher generation and so never matches an
// entry cached from the freed one.
type cacheKey struct {
	mac memsim.MachineID
	pfn memsim.PFN
	gen uint64
}

// cacheEntry is one cached page: an intrusive node on the recency list and
// on its producer's index, pooled on removal so steady-state insert/evict
// churn allocates nothing.
type cacheEntry struct {
	key   cacheKey
	local memsim.PFN // consumer-machine frame holding the page's bytes

	prev, next   *cacheEntry // recency list (head = MRU)
	pprev, pnext *cacheEntry // per-producer index, insertion order
}

// producerIndex lists one producer machine's entries in insertion order, so
// invalidation walks only that producer's pages and replays its frame
// unrefs deterministically.
type producerIndex struct{ head, tail *cacheEntry }

// PageCache is the machine-level remote page cache: the first fault on a
// producer page fetches it once over the fabric and inserts a refcounted
// frame here; later faults from any co-located consumer install that frame
// CoW-shared instead of fetching and copying. The cache holds one reference
// per entry, bounded by a byte budget with LRU eviction.
//
// One mutex guards everything. The engine runs each machine's invocations
// on one goroutine per worker phase, so the lock is never contended on the
// fault path; it exists for the sim-thread invalidation broadcasts and for
// kernel-level users that share a cache across goroutines (DESIGN.md §12).
type PageCache struct {
	machine *memsim.Machine
	budget  int64

	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	lruHead *cacheEntry // most recently used
	lruTail *cacheEntry // least recently used
	prod    map[memsim.MachineID]*producerIndex
	free    []*cacheEntry

	hits, misses, inserts, evictions int64
	// invalScanned counts entries examined by invalidation walks; the
	// per-producer index keeps it O(entries of that producer), which the
	// regression test asserts.
	invalScanned int64
}

// NewPageCache returns an empty cache on machine m with the given byte
// budget (must be > 0; use a nil *PageCache to disable caching).
func NewPageCache(m *memsim.Machine, budget int64) *PageCache {
	return &PageCache{
		machine: m, budget: budget,
		entries: make(map[cacheKey]*cacheEntry),
		prod:    make(map[memsim.MachineID]*producerIndex),
	}
}

// Budget returns the configured byte budget.
func (c *PageCache) Budget() int64 { return c.budget }

// --- list plumbing (callers hold c.mu) ---

func (c *PageCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = e
	}
	c.lruHead = e
	if c.lruTail == nil {
		c.lruTail = e
	}
}

func (c *PageCache) unlinkLRU(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.lruTail = e.prev
	}
}

func (c *PageCache) moveToFront(e *cacheEntry) {
	if c.lruHead != e {
		c.unlinkLRU(e)
		c.pushFront(e)
	}
}

// drop removes e from every structure, releases the cache's frame
// reference and pools the entry.
func (c *PageCache) drop(e *cacheEntry) {
	c.unlinkLRU(e)
	idx := c.prod[e.key.mac]
	if e.pprev != nil {
		e.pprev.pnext = e.pnext
	} else {
		idx.head = e.pnext
	}
	if e.pnext != nil {
		e.pnext.pprev = e.pprev
	} else {
		idx.tail = e.pprev
	}
	delete(c.entries, e.key)
	c.machine.Unref(e.local)
	*e = cacheEntry{}
	c.free = append(c.free, e)
}

// Lookup returns the local frame caching (mac, pfn, gen) and records a hit
// or miss. The frame stays owned by the cache; callers wanting to map it
// must take their own reference (InstallShared does).
func (c *PageCache) Lookup(mac memsim.MachineID, pfn memsim.PFN, gen uint64) (memsim.PFN, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[cacheKey{mac, pfn, gen}]
	if !ok {
		c.misses++
		return 0, false
	}
	c.moveToFront(e)
	c.hits++
	return e.local, true
}

// Contains reports whether the page is cached without touching recency or
// the hit/miss counters (readahead eligibility checks).
func (c *PageCache) Contains(mac memsim.MachineID, pfn memsim.PFN, gen uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[cacheKey{mac, pfn, gen}]
	return ok
}

// InsertBatch admits fetched pages, taking ownership of the caller's
// reference on each locals[i]. canon receives the canonical frame for each
// page and must be len(locals): the caller's frame, or — when the key is
// already cached (two consumers raced on the same page) — the existing
// entry's, in which case the caller's frame is released. Admission does NOT
// evict: the caller takes its own references on the canonical frames first
// (InstallSharedBatch) and then calls TrimToBudget, so a batch larger than
// the budget can never free a frame between cache admission and page-table
// install.
func (c *PageCache) InsertBatch(mac memsim.MachineID, gen uint64, rpfns, locals, canon []memsim.PFN) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := c.prod[mac]
	if idx == nil {
		idx = &producerIndex{}
		c.prod[mac] = idx
	}
	for i, local := range locals {
		key := cacheKey{mac, rpfns[i], gen}
		if e, ok := c.entries[key]; ok {
			c.moveToFront(e)
			c.machine.Unref(local)
			canon[i] = e.local
			continue
		}
		var e *cacheEntry
		if n := len(c.free); n > 0 {
			e, c.free = c.free[n-1], c.free[:n-1]
		} else {
			e = &cacheEntry{}
		}
		e.key, e.local = key, local
		c.pushFront(e)
		e.pprev = idx.tail
		if idx.tail == nil {
			idx.head = e
		} else {
			idx.tail.pnext = e
		}
		idx.tail = e
		c.entries[key] = e
		c.inserts++
		canon[i] = local
	}
}

// TrimToBudget evicts least-recently-used entries until the cache fits its
// byte budget, charging the bookkeeping to meter under CatCache.
func (c *PageCache) TrimToBudget(meter *simtime.Meter, cm *simtime.CostModel) {
	c.mu.Lock()
	evicted := 0
	for int64(len(c.entries))*memsim.PageSize > c.budget {
		c.drop(c.lruTail)
		evicted++
	}
	c.evictions += int64(evicted)
	c.mu.Unlock()
	if evicted > 0 && meter != nil {
		meter.Charge(simtime.CatCache, simtime.Scale(cm.CacheEvictPerPage, evicted))
	}
}

// InvalidateMachine drops every entry sourced from mac (machine crash).
func (c *PageCache) InvalidateMachine(mac memsim.MachineID) {
	c.invalidateProducer(mac, func(cacheKey) bool { return true })
}

// InvalidateBelow drops entries sourced from mac with generation < below —
// the deregister_mem broadcast. Entries of still-live registrations (higher
// generation) survive.
func (c *PageCache) InvalidateBelow(mac memsim.MachineID, below uint64) {
	c.invalidateProducer(mac, func(k cacheKey) bool { return k.gen < below })
}

// invalidateProducer walks only mac's index — O(entries of that producer),
// not a full cache scan — dropping entries drop() selects, in insertion
// order.
func (c *PageCache) invalidateProducer(mac memsim.MachineID, drop func(cacheKey) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := c.prod[mac]
	if idx == nil {
		return
	}
	var next *cacheEntry
	for e := idx.head; e != nil; e = next {
		next = e.pnext
		c.invalScanned++
		if drop(e.key) {
			c.drop(e)
		}
	}
}

// clear drops every entry (EnablePageCache teardown).
func (c *PageCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.lruTail != nil {
		c.drop(c.lruTail)
	}
}

// MachineBytes reports the cache footprint attributable to pages sourced
// from mac (test observability for crash invalidation).
func (c *PageCache) MachineBytes(mac memsim.MachineID) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	if idx := c.prod[mac]; idx != nil {
		for e := idx.head; e != nil; e = e.pnext {
			n += memsim.PageSize
		}
	}
	return n
}

// Stats snapshots the cache counters.
func (c *PageCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Inserts: c.inserts, Evictions: c.evictions,
		LiveBytes: int64(len(c.entries)) * memsim.PageSize,
	}
}

// InvalScanned reports the cumulative number of cache entries examined by
// invalidation walks. With the per-producer index, invalidating one
// producer's registration scans only that producer's entries — the
// regression test pins this so a future full-scan reintroduction fails.
func (c *PageCache) InvalScanned() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.invalScanned
}

// Len reports the number of cached pages.
func (c *PageCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
