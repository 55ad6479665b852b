package kernel

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"rmmap/internal/memsim"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
)

// BenchmarkFaultPath is the raw-speed guard over the fault → page-cache →
// fabric-read hot path. Each op is one page made present in a consumer
// address space (demand fault, cache hit, or readahead-batch install).
// The CI allocation-regression step parses `-benchmem` output from these
// benchmarks and fails if steady-state allocs/op is ever > 0 — the
// zero-allocation contract of the hot path.
//
// Steady state excludes mapping setup/teardown (rmap's page-table fetch
// allocates by design); those run under StopTimer between fault rounds.

const (
	benchPagesPerRound = 512
	benchRangeStart    = uint64(0x10_0000)
)

// faultBench is one benchmark cluster: a producer machine with a
// registered range and a consumer machine repeatedly faulting it in.
type faultBench struct {
	cm       *simtime.CostModel
	fabric   *rdma.SimFabric
	producer *memsim.Machine
	consumer *memsim.Machine
	pk, ck   *Kernel
	meta     VMMeta
	end      uint64
}

func newFaultBench(b *testing.B, pages int) *faultBench {
	b.Helper()
	cm := simtime.DefaultCostModel()
	fb := &faultBench{cm: cm, fabric: rdma.NewSimFabric(cm)}
	fb.producer = memsim.NewMachine(0)
	fb.consumer = memsim.NewMachine(1)
	fb.fabric.Attach(fb.producer)
	fb.fabric.Attach(fb.consumer)
	fb.pk = New(fb.producer, rdma.NewNIC(0, fb.fabric), cm)
	fb.ck = New(fb.consumer, rdma.NewNIC(1, fb.fabric), cm)
	fb.pk.ServeRPC(fb.fabric)
	fb.ck.ServeRPC(fb.fabric)

	fb.end = benchRangeStart + uint64(pages)*memsim.PageSize
	as := memsim.NewAddressSpace(fb.producer, cm)
	as.SetMeter(simtime.NewMeter())
	if err := fb.pk.SetSegment(as, memsim.SegHeap, benchRangeStart, fb.end); err != nil {
		b.Fatal(err)
	}
	pattern := []byte("fault-path-bench")
	for a := benchRangeStart; a < fb.end; a += memsim.PageSize {
		if err := as.Write(a, pattern); err != nil {
			b.Fatal(err)
		}
	}
	meta, err := fb.pk.RegisterMem(as, 7, 42, benchRangeStart, fb.end)
	if err != nil {
		b.Fatal(err)
	}
	fb.meta = meta
	return fb
}

// rmapFresh maps the registered range into a fresh consumer address space.
func (fb *faultBench) rmapFresh(b *testing.B) (*memsim.AddressSpace, *Mapping) {
	b.Helper()
	as := memsim.NewAddressSpace(fb.consumer, fb.cm)
	as.SetMeter(simtime.NewMeter())
	mp, err := fb.ck.Rmap(as, fb.meta.Machine, fb.meta.ID, fb.meta.Key, fb.meta.Start, fb.meta.End)
	if err != nil {
		b.Fatal(err)
	}
	return as, mp
}

// runFaultRounds drives b.N page installs through fresh consumer address
// spaces, re-mapping (outside the timer) whenever the range is exhausted.
func runFaultRounds(b *testing.B, fb *faultBench) {
	var probe [1]byte
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		b.StopTimer()
		as, _ := fb.rmapFresh(b)
		addr := benchRangeStart
		b.StartTimer()
		for addr < fb.end && done < b.N {
			if err := as.Read(addr, probe[:]); err != nil {
				b.Fatal(err)
			}
			addr += memsim.PageSize
			done++
		}
		b.StopTimer()
		as.Release()
		b.StartTimer()
	}
}

// BenchmarkFaultPath/miss: demand faults with no readahead and a cache in
// eviction churn (budget far below the working set), so every op is the
// full miss path: fault → fabric read → frame write → cache insert+evict →
// CoW-shared install.
func BenchmarkFaultPath(b *testing.B) {
	b.Run("miss", func(b *testing.B) {
		fb := newFaultBench(b, benchPagesPerRound)
		fb.ck.EnablePageCache(8 * memsim.PageSize)
		fb.ck.SetReadahead(1)
		runFaultRounds(b, fb)
	})

	// hit: the range is fully cached on the consumer machine; every op is
	// a lookup hit plus a zero-copy CoW-shared install.
	b.Run("hit", func(b *testing.B) {
		fb := newFaultBench(b, benchPagesPerRound)
		fb.ck.EnablePageCache(int64(benchPagesPerRound) * 4 * memsim.PageSize)
		fb.ck.SetReadahead(1)
		warm, _ := fb.rmapFresh(b)
		var probe [1]byte
		for a := benchRangeStart; a < fb.end; a += memsim.PageSize {
			if err := warm.Read(a, probe[:]); err != nil {
				b.Fatal(err)
			}
		}
		runFaultRounds(b, fb)
	})

	// batch: sequential faults with the adaptive readahead window open, so
	// most pages install through the doorbell-batched whole-window path
	// (fetch batch → batched frame writes → batched cache admission).
	b.Run("batch", func(b *testing.B) {
		fb := newFaultBench(b, benchPagesPerRound)
		fb.ck.EnablePageCache(8 * memsim.PageSize)
		fb.ck.SetReadahead(DefaultReadaheadMax)
		runFaultRounds(b, fb)
	})

	// uncached: the no-page-cache configuration (private writable installs),
	// the original CoW coherency model.
	b.Run("uncached", func(b *testing.B) {
		fb := newFaultBench(b, benchPagesPerRound)
		fb.ck.SetReadahead(1)
		runFaultRounds(b, fb)
	})
}

// BenchmarkFaultPathParallel measures cross-machine lock contention on the
// shared producer: GOMAXPROCS consumer machines fault the same registered
// range concurrently. Each goroutine owns its consumer machine, kernel and
// page cache — as a worker group does in the engine — so only the
// producer's frame table and the fabric telemetry are hammered from every
// goroutine at once. The frame-lock shards and atomic counters are what
// keep that from convoying.
func BenchmarkFaultPathParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	cm := simtime.DefaultCostModel()
	fabric := rdma.NewSimFabric(cm)
	producer := memsim.NewMachine(0)
	fabric.Attach(producer)
	pk := New(producer, rdma.NewNIC(0, fabric), cm)
	pk.ServeRPC(fabric)

	end := benchRangeStart + uint64(benchPagesPerRound)*memsim.PageSize
	pas := memsim.NewAddressSpace(producer, cm)
	pas.SetMeter(simtime.NewMeter())
	if err := pk.SetSegment(pas, memsim.SegHeap, benchRangeStart, end); err != nil {
		b.Fatal(err)
	}
	for a := benchRangeStart; a < end; a += memsim.PageSize {
		if err := pas.Write(a, []byte("parallel-bench!!")); err != nil {
			b.Fatal(err)
		}
	}
	meta, err := pk.RegisterMem(pas, 7, 42, benchRangeStart, end)
	if err != nil {
		b.Fatal(err)
	}

	kernels := make([]*Kernel, workers)
	for i := range kernels {
		m := memsim.NewMachine(memsim.MachineID(i + 1))
		fabric.Attach(m)
		k := New(m, rdma.NewNIC(m.ID(), fabric), cm)
		k.ServeRPC(fabric)
		k.EnablePageCache(8 * memsim.PageSize)
		k.SetReadahead(1)
		kernels[i] = k
	}

	b.ReportAllocs()
	b.ResetTimer()
	perWorker := b.N/workers + 1
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(k *Kernel) {
			defer wg.Done()
			var probe [1]byte
			done := 0
			for done < perWorker {
				as := memsim.NewAddressSpace(k.Machine(), cm)
				as.SetMeter(simtime.NewMeter())
				mp, err := k.Rmap(as, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
				if err != nil {
					panic(fmt.Sprintf("rmap: %v", err))
				}
				_ = mp
				for a := benchRangeStart; a < end && done < perWorker; a += memsim.PageSize {
					if err := as.Read(a, probe[:]); err != nil {
						panic(fmt.Sprintf("read: %v", err))
					}
					done++
				}
				as.Release()
			}
		}(kernels[i])
	}
	wg.Wait()
}
