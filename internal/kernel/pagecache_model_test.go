package kernel

import (
	"container/list"
	"math/rand"
	"sync"
	"testing"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// modelLRU is the reference the cache is checked against: the textbook
// list-plus-map LRU, with none of the cache's intrusive lists, pooling or
// producer index. It holds keys and frame numbers only; that the cache
// really frees what the model drops is checked through Machine.LiveFrames.
type modelLRU struct {
	budget int // pages
	order  *list.List
	byKey  map[cacheKey]*list.Element
	stats  CacheStats
}

type modelEntry struct {
	key   cacheKey
	local memsim.PFN
}

func (m *modelLRU) lookup(k cacheKey) (memsim.PFN, bool) {
	el, ok := m.byKey[k]
	if !ok {
		m.stats.Misses++
		return 0, false
	}
	m.stats.Hits++
	m.order.MoveToFront(el)
	return el.Value.(modelEntry).local, true
}

func (m *modelLRU) insert(k cacheKey, local memsim.PFN) memsim.PFN {
	if el, ok := m.byKey[k]; ok {
		m.order.MoveToFront(el)
		return el.Value.(modelEntry).local
	}
	m.byKey[k] = m.order.PushFront(modelEntry{k, local})
	m.stats.Inserts++
	return local
}

func (m *modelLRU) remove(el *list.Element) {
	delete(m.byKey, m.order.Remove(el).(modelEntry).key)
}

func (m *modelLRU) trim() {
	for m.order.Len() > m.budget {
		m.remove(m.order.Back())
		m.stats.Evictions++
	}
}

// invalidate drops mac's entries selected by drop and returns how many of
// mac's entries exist (what a per-producer walk may scan).
func (m *modelLRU) invalidate(mac memsim.MachineID, drop func(cacheKey) bool) (scanned int64) {
	var next *list.Element
	for el := m.order.Front(); el != nil; el = next {
		next = el.Next()
		if k := el.Value.(modelEntry).key; k.mac == mac {
			scanned++
			if drop(k) {
				m.remove(el)
			}
		}
	}
	return scanned
}

// TestPageCacheMatchesModelLRU drives the cache and the reference with one
// seeded random operation stream and compares them after every step: hit
// and miss answers, canonical frames, the exact resident set (so every
// victim choice), the live frame count, Stats and the invalidation scan
// count.
func TestPageCacheMatchesModelLRU(t *testing.T) {
	const (
		ops       = 12000
		producers = 3
		pfnSpace  = 32
		budget    = 48 // pages; a quarter of the key space, so hits and evictions both stay frequent
	)
	rng := rand.New(rand.NewSource(20260805))
	m := memsim.NewMachine(0)
	cm := simtime.DefaultCostModel()
	pc := NewPageCache(m, budget*memsim.PageSize)
	model := &modelLRU{budget: budget, order: list.New(), byKey: make(map[cacheKey]*list.Element)}
	baseGen := make([]uint64, producers+1) // oldest generation still valid, per producer

	randKey := func() cacheKey {
		mac := memsim.MachineID(1 + rng.Intn(producers))
		return cacheKey{mac, memsim.PFN(rng.Intn(pfnSpace)), baseGen[mac] + uint64(rng.Intn(2))}
	}
	var wantEvictCharge simtime.Duration
	meter := simtime.NewMeter()

	for step := 0; step < ops; step++ {
		switch op := rng.Intn(100); {
		case op < 45:
			k := randKey()
			got, hit := pc.Lookup(k.mac, k.pfn, k.gen)
			want, wantHit := model.lookup(k)
			if hit != wantHit || got != want {
				t.Fatalf("step %d: Lookup(%v) = (%d,%v), model (%d,%v)", step, k, got, hit, want, wantHit)
			}
		case op < 55:
			k := randKey()
			_, want := model.byKey[k]
			if got := pc.Contains(k.mac, k.pfn, k.gen); got != want {
				t.Fatalf("step %d: Contains(%v) = %v, model %v", step, k, got, want)
			}
		case op < 92:
			// One fetch's worth of pages from one producer generation;
			// keys may repeat inside the batch and may already be cached.
			first := randKey()
			n := 1 + rng.Intn(8)
			rpfns := make([]memsim.PFN, n)
			locals := make([]memsim.PFN, n)
			canon := make([]memsim.PFN, n)
			want := make([]memsim.PFN, n)
			for i := range rpfns {
				rpfns[i] = memsim.PFN(rng.Intn(pfnSpace))
				locals[i] = m.AllocFrame()
				want[i] = model.insert(cacheKey{first.mac, rpfns[i], first.gen}, locals[i])
			}
			pc.InsertBatch(first.mac, first.gen, rpfns, locals, canon)
			for i := range canon {
				if canon[i] != want[i] {
					t.Fatalf("step %d: InsertBatch canon[%d] = %d, model %d", step, i, canon[i], want[i])
				}
			}
			before := model.stats.Evictions
			model.trim()
			wantEvictCharge += simtime.Scale(cm.CacheEvictPerPage, int(model.stats.Evictions-before))
			pc.TrimToBudget(meter, cm)
		case op < 97:
			mac := memsim.MachineID(1 + rng.Intn(producers))
			baseGen[mac]++
			below := baseGen[mac]
			before := pc.InvalScanned()
			pc.InvalidateBelow(mac, below)
			wantScanned := model.invalidate(mac, func(k cacheKey) bool { return k.gen < below })
			if got := pc.InvalScanned() - before; got != wantScanned {
				t.Fatalf("step %d: InvalidateBelow(%d,%d) scanned %d entries, producer holds %d", step, mac, below, got, wantScanned)
			}
		default:
			mac := memsim.MachineID(1 + rng.Intn(producers))
			before := pc.InvalScanned()
			pc.InvalidateMachine(mac)
			wantScanned := model.invalidate(mac, func(cacheKey) bool { return true })
			if got := pc.InvalScanned() - before; got != wantScanned {
				t.Fatalf("step %d: InvalidateMachine(%d) scanned %d entries, producer holds %d", step, mac, got, wantScanned)
			}
		}

		// Same resident set ⇒ every eviction and invalidation so far picked
		// the model's victims.
		if pc.Len() != len(model.byKey) {
			t.Fatalf("step %d: cache holds %d pages, model %d", step, pc.Len(), len(model.byKey))
		}
		for k := range model.byKey {
			if !pc.Contains(k.mac, k.pfn, k.gen) {
				t.Fatalf("step %d: model holds %v, cache evicted it", step, k)
			}
		}
		want := model.stats
		want.LiveBytes = int64(len(model.byKey)) * memsim.PageSize
		if got := pc.Stats(); got != want {
			t.Fatalf("step %d: Stats = %+v, model %+v", step, got, want)
		}
		if got := m.LiveFrames(); got != len(model.byKey) {
			t.Fatalf("step %d: machine holds %d frames, model %d", step, got, len(model.byKey))
		}
	}
	if got := meter.Get(simtime.CatCache); got != wantEvictCharge {
		t.Errorf("eviction charge = %v, model %v", got, wantEvictCharge)
	}
	if model.stats.Evictions < 1000 || model.stats.Hits < 1000 {
		t.Fatalf("stream exercised too little: %+v", model.stats)
	}
}

// TestPageCacheConcurrentSmoke keeps the cache's mutex honest: kernel-level
// users and the sim thread's invalidation broadcasts may reach one cache
// from several goroutines, so -race must stay quiet and no frame may leak.
func TestPageCacheConcurrentSmoke(t *testing.T) {
	m := memsim.NewMachine(0)
	cm := simtime.DefaultCostModel()
	pc := NewPageCache(m, 32*memsim.PageSize)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			mac := memsim.MachineID(1 + g%2)
			canon := make([]memsim.PFN, 4)
			for i := 0; i < 2000; i++ {
				switch rng.Intn(10) {
				case 0:
					pc.InvalidateBelow(mac, uint64(rng.Intn(3)))
				case 1:
					pc.InvalidateMachine(mac)
				case 2, 3, 4:
					rpfns := make([]memsim.PFN, len(canon))
					locals := make([]memsim.PFN, len(canon))
					for j := range rpfns {
						rpfns[j] = memsim.PFN(rng.Intn(64))
						locals[j] = m.AllocFrame()
					}
					pc.InsertBatch(mac, uint64(rng.Intn(3)), rpfns, locals, canon)
					pc.TrimToBudget(nil, cm)
				default:
					pc.Lookup(mac, memsim.PFN(rng.Intn(64)), uint64(rng.Intn(3)))
					pc.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := m.LiveFrames(), pc.Len(); got != want {
		t.Errorf("machine holds %d frames, cache %d entries", got, want)
	}
	if s := pc.Stats(); s.LiveBytes > pc.Budget() {
		t.Errorf("cache over budget after trim: %+v", s)
	}
	pc.InvalidateMachine(1)
	pc.InvalidateMachine(2)
	if m.LiveFrames() != 0 {
		t.Errorf("%d frames leaked after invalidating both producers", m.LiveFrames())
	}
}
