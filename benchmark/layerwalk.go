package main

import (
	"fmt"
	"runtime"
	"time"

	"rmmap/internal/admit"
	"rmmap/internal/ctrl"
	"rmmap/internal/kernel"
	"rmmap/internal/load"
	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/platform"
	"rmmap/internal/platformbuilder"
	"rmmap/internal/rdma"
	"rmmap/internal/sim"
	"rmmap/internal/simtime"
	"rmmap/internal/transport"
	"rmmap/internal/workloads"
)

// The layerwalk measures what one call into each layer costs on the host,
// from outside: every bench assembles what it needs from the layers'
// public constructors, as internal/bench/micro.go does for its transfer
// rig. Benches have the shape of SNIPPETS.md snippet 2 — init builds a
// fixed arena and pre-built batches, the timed call is steady state only,
// free is separate — and every figure is the median over a number of
// batches after one discarded batch that grows pools and maps to their
// steady size.

const layerwalkName = "layerwalk"

// lwSizes says how much a bench measures.
type lwSizes struct {
	// batches is how many measured batches a figure is the median of.
	batches int
	// ops is the least number of operations in a batch, except where one
	// operation takes a millisecond (engine and cluster construction). It
	// is a multiple of 2048.
	ops int
	// faults is a fault-timing window: the repository's earlier figure
	// came from one 2 ms window of 1632 faults.
	faults int
}

var (
	lwFull  = lwSizes{batches: 7, ops: 10240, faults: 102400}
	lwQuick = lwSizes{batches: 2, ops: 2048, faults: 4096}
)

// stopwatch adds up the timed windows of a batch. With mem set it also
// adds up what the Go heap allocated inside them (reading MemStats stops
// the world, but outside the windows).
type stopwatch struct {
	mem     bool
	ns      int64
	mallocs uint64
	bytes   uint64
	t0      time.Time
	m0      runtime.MemStats
}

func (s *stopwatch) start() {
	if s.mem {
		runtime.ReadMemStats(&s.m0)
	}
	s.t0 = time.Now()
}

func (s *stopwatch) stop() {
	s.ns += time.Since(s.t0).Nanoseconds()
	if s.mem {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		s.mallocs += m1.Mallocs - s.m0.Mallocs
		s.bytes += m1.TotalAlloc - s.m0.TotalAlloc
	}
}

func (s *stopwatch) per(units int) float64 { return float64(s.ns) / float64(units) }

// emitFn hands one batch's value of a metric to the harness.
type emitFn func(metric string, v float64)

// layerBench is one bench: init returns the steady-state batch and the
// teardown.
type layerBench struct {
	name string
	init func() (batch func(emit emitFn) error, free func(), err error)
}

// lwRig is a producer machine (0) and a consumer machine (1) on one
// fabric, each with a kernel.
type lwRig struct {
	cm           *simtime.CostModel
	fabric       *rdma.SimFabric
	prodM, consM *memsim.Machine
	prodK, consK *kernel.Kernel
	consNIC      *rdma.NIC
}

func newLWRig() *lwRig {
	cm := simtime.DefaultCostModel()
	r := &lwRig{cm: cm, fabric: rdma.NewSimFabric(cm), prodM: memsim.NewMachine(0), consM: memsim.NewMachine(1)}
	r.fabric.Attach(r.prodM)
	r.fabric.Attach(r.consM)
	r.consNIC = rdma.NewNIC(1, r.fabric)
	r.prodK = kernel.New(r.prodM, rdma.NewNIC(0, r.fabric), cm)
	r.consK = kernel.New(r.consM, r.consNIC, cm)
	r.prodK.ServeRPC(r.fabric)
	r.consK.ServeRPC(r.fabric)
	return r
}

func (r *lwRig) space(m *memsim.Machine) *memsim.AddressSpace {
	as := memsim.NewAddressSpace(m, r.cm)
	as.SetMeter(simtime.NewMeter())
	return as
}

const (
	lwRange    = uint64(0x10_0000)
	lwProdHeap = uint64(0x1_0000_0000)
	lwConsHeap = uint64(0x9_0000_0000)
	lwHeapSize = uint64(1 << 30)
)

// resident maps [lwRange, +pages) writable in a fresh address space on m
// and touches every page.
func (r *lwRig) resident(m *memsim.Machine, pages int) (*memsim.AddressSpace, uint64, error) {
	as := r.space(m)
	end := lwRange + uint64(pages)*memsim.PageSize
	if err := as.MapAnon(lwRange, end, memsim.SegHeap, true); err != nil {
		return nil, 0, err
	}
	for a := lwRange; a < end; a += memsim.PageSize {
		if err := as.WriteUint64(a, a); err != nil {
			return nil, 0, err
		}
	}
	return as, end, nil
}

// registered publishes a resident range of the producer for rmap.
func (r *lwRig) registered(pages int) (kernel.VMMeta, error) {
	as, end, err := r.resident(r.prodM, pages)
	if err != nil {
		return kernel.VMMeta{}, err
	}
	return r.prodK.RegisterMem(as, 7, 42, lwRange, end)
}

func (r *lwRig) rmap(meta kernel.VMMeta) (*memsim.AddressSpace, *kernel.Mapping, error) {
	as := r.space(r.consM)
	mp, err := r.consK.Rmap(as, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	return as, mp, err
}

func sweep(as *memsim.AddressSpace, start, end uint64) error {
	var probe [1]byte
	for a := start; a < end; a += memsim.PageSize {
		if err := as.Read(a, probe[:]); err != nil {
			return err
		}
	}
	return nil
}

func noFree() {}

// layerBenches lists every bench at the given sizes.
func layerBenches(z lwSizes) []layerBench {
	ops, faults := z.ops, z.faults
	return []layerBench{
		{"sim.After+Run", func() (func(emitFn) error, func(), error) {
			rng := &splitmix{s: 1}
			delays := make([]simtime.Duration, ops)
			for i := range delays {
				delays[i] = simtime.Duration(rng.next() % uint64(simtime.Millisecond))
			}
			return func(emit emitFn) error {
				s := sim.New()
				fired := 0
				fn := func() { fired++ }
				sw := stopwatch{mem: true}
				sw.start()
				for _, d := range delays {
					s.After(d, fn)
				}
				s.Run()
				sw.stop()
				if fired != len(delays) {
					return fmt.Errorf("sim ran %d of %d events", fired, len(delays))
				}
				emit("sim.event_ns", sw.per(fired))
				emit("sim.event_allocs", float64(sw.mallocs)/float64(fired))
				return nil
			}, noFree, nil
		}},

		{"memsim.AllocFrame+Unref", func() (func(emitFn) error, func(), error) {
			m := memsim.NewMachine(0)
			pfns := make([]memsim.PFN, ops)
			return func(emit emitFn) error {
				var sw stopwatch
				sw.start()
				for i := range pfns {
					pfns[i] = m.AllocFrame()
				}
				for _, pfn := range pfns {
					m.Unref(pfn)
				}
				sw.stop()
				emit("memsim.alloc_unref_ns", sw.per(len(pfns)))
				return nil
			}, noFree, nil
		}},

		{"memsim.AddressSpace.Read+Write", func() (func(emitFn) error, func(), error) {
			r := newLWRig()
			as, end, err := r.resident(r.prodM, ops)
			if err != nil {
				return nil, nil, err
			}
			buf := make([]byte, memsim.PageSize)
			return func(emit emitFn) error {
				var rd, wr stopwatch
				rd.start()
				for a := lwRange; a < end; a += memsim.PageSize {
					if err := as.Read(a, buf); err != nil {
						return err
					}
				}
				rd.stop()
				wr.start()
				for a := lwRange; a < end; a += memsim.PageSize {
					if err := as.Write(a, buf); err != nil {
						return err
					}
				}
				wr.stop()
				emit("memsim.read_page_ns", rd.per(ops))
				emit("memsim.write_page_ns", wr.per(ops))
				return nil
			}, as.Release, nil
		}},

		{"memsim.AddressSpace.MarkCoW+breakCoW", func() (func(emitFn) error, func(), error) {
			r := newLWRig()
			as, end, err := r.resident(r.prodM, ops)
			if err != nil {
				return nil, nil, err
			}
			return func(emit emitFn) error {
				var mark, brk stopwatch
				mark.start()
				snap, err := as.MarkCoW(lwRange, end)
				mark.stop()
				if err != nil || len(snap) != ops {
					return fmt.Errorf("MarkCoW marked %d of %d pages: %v", len(snap), ops, err)
				}
				// Every page is now write-protected: the first store to each
				// copies the frame.
				brk.start()
				for a := lwRange; a < end; a += memsim.PageSize {
					if err := as.WriteUint64(a, a); err != nil {
						return err
					}
				}
				brk.stop()
				emit("memsim.markcow_page_ns", mark.per(ops))
				emit("memsim.cow_break_ns", brk.per(ops))
				return nil
			}, as.Release, nil
		}},

		{"memsim.AddressSpace.Unmap", func() (func(emitFn) error, func(), error) {
			r := newLWRig()
			return func(emit emitFn) error {
				as, end, err := r.resident(r.prodM, ops)
				if err != nil {
					return err
				}
				var sw stopwatch
				sw.start()
				err = as.Unmap(lwRange, end)
				sw.stop()
				emit("memsim.unmap_page_ns", sw.per(ops))
				return err
			}, noFree, nil
		}},

		{"rdma.NIC.Read+ReadPages+Call, TopoTransport.Read", func() (func(emitFn) error, func(), error) {
			r := newLWRig()
			pfns := make([]memsim.PFN, ops)
			for i := range pfns {
				pfns[i] = r.prodM.AllocFrame()
			}
			const doorbell = 64
			reqs := make([]rdma.PageRead, doorbell)
			for i := range reqs {
				reqs[i].Buf = make([]byte, memsim.PageSize)
			}
			buf := make([]byte, memsim.PageSize)
			reply := make([]byte, 16)
			r.fabric.HandleFunc(0, "bench.echo", func(*simtime.Meter, []byte) ([]byte, error) { return reply, nil })
			request := make([]byte, 40)
			// Machine 0 and machine 1 in different racks: every read crosses
			// the spine.
			topo, err := rdma.NewTopology([]int{0, 1}, platformbuilder.DefaultToRLink, platformbuilder.DefaultSpineLink)
			if err != nil {
				return nil, nil, err
			}
			cross := rdma.WithTopology(rdma.NewNIC(1, r.fabric), topo)
			meter := simtime.NewMeter()
			return func(emit emitFn) error {
				var read, batch, call, tread stopwatch
				read.start()
				for _, pfn := range pfns {
					if err := r.consNIC.Read(meter, 0, pfn, 0, buf); err != nil {
						return err
					}
				}
				read.stop()
				batch.start()
				for i := 0; i < len(pfns); i += doorbell {
					for k := range reqs {
						reqs[k].PFN = pfns[i+k]
					}
					if err := r.consNIC.ReadPages(meter, 0, reqs); err != nil {
						return err
					}
				}
				batch.stop()
				call.start()
				for range pfns {
					if _, err := r.consNIC.Call(meter, 0, "bench.echo", request); err != nil {
						return err
					}
				}
				call.stop()
				tread.start()
				for _, pfn := range pfns {
					if err := cross.Read(meter, 0, pfn, 0, buf); err != nil {
						return err
					}
				}
				tread.stop()
				emit("rdma.read_page_ns", read.per(ops))
				emit("rdma.readpages_page_ns", batch.per(ops))
				emit("rdma.call_ns", call.per(ops))
				emit("rdma.topo_read_page_ns", tread.per(ops))
				return nil
			}, noFree, nil
		}},

		{"kernel.RegisterMem+DeregisterMem", func() (func(emitFn) error, func(), error) {
			// A registration the size of a small state in whole-space scope:
			// the 4 MiB of resident text dominates it.
			const pages = 1024
			regs := ops / pages
			r := newLWRig()
			as, end, err := r.resident(r.prodM, pages)
			if err != nil {
				return nil, nil, err
			}
			return func(emit emitFn) error {
				var reg, dereg stopwatch
				for i := 0; i < regs; i++ {
					reg.start()
					_, err := r.prodK.RegisterMem(as, kernel.FuncID(i+1), kernel.Key(i+1), lwRange, end)
					reg.stop()
					if err != nil {
						return err
					}
				}
				for i := 0; i < regs; i++ {
					dereg.start()
					err := r.prodK.DeregisterMem(kernel.FuncID(i+1), kernel.Key(i+1))
					dereg.stop()
					if err != nil {
						return err
					}
				}
				emit("kernel.register_page_ns", reg.per(pages*regs))
				emit("kernel.deregister_page_ns", dereg.per(pages*regs))
				return nil
			}, as.Release, nil
		}},

		{"kernel.Rmap", func() (func(emitFn) error, func(), error) {
			// A 64-page (256 KiB) registration: rmap's cost is the auth RPC
			// plus a page table proportional to the registration.
			r := newLWRig()
			meta, err := r.registered(64)
			if err != nil {
				return nil, nil, err
			}
			spaces := make([]*memsim.AddressSpace, ops)
			return func(emit emitFn) error {
				for i := range spaces {
					spaces[i] = r.space(r.consM)
				}
				var sw stopwatch
				sw.start()
				for _, as := range spaces {
					if _, err := r.consK.Rmap(as, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End); err != nil {
						return err
					}
				}
				sw.stop()
				for _, as := range spaces {
					as.Release()
				}
				emit("kernel.rmap_ns", sw.per(len(spaces)))
				return nil
			}, noFree, nil
		}},

		{"kernel.Mapping.fault (miss)", func() (func(emitFn) error, func(), error) {
			// The full miss path on every fault: no readahead, and a cache of
			// 8 pages under a 2048-page sweep, so each fault is fabric read +
			// frame fill + cache insert + evict + shared install. The discarded
			// first batch grows the consumer's frame pool; allocation is then
			// measured in bytes as well as in calls, because a fraction of an
			// allocation per fault rounds to zero calls.
			const pages = 2048
			r := newLWRig()
			meta, err := r.registered(pages)
			if err != nil {
				return nil, nil, err
			}
			r.consK.EnablePageCache(8 * memsim.PageSize)
			r.consK.SetReadahead(1)
			return func(emit emitFn) error {
				sw := stopwatch{mem: true}
				for done := 0; done < faults; done += pages {
					as, _, err := r.rmap(meta)
					if err != nil {
						return err
					}
					sw.start()
					err = sweep(as, meta.Start, meta.End)
					sw.stop()
					if err != nil {
						return err
					}
					as.Release()
				}
				emit("kernel.fault_miss_ns", sw.per(faults))
				emit("kernel.fault_miss_allocs", float64(sw.mallocs)/float64(faults))
				emit("kernel.fault_miss_bytes", float64(sw.bytes)/float64(faults))
				return nil
			}, noFree, nil
		}},

		{"kernel.Mapping.fault (hit)+Unmap", func() (func(emitFn) error, func(), error) {
			// The range stays cached on the consumer machine: every fault is a
			// lookup hit and a zero-copy shared install.
			const pages = 2048
			r := newLWRig()
			meta, err := r.registered(pages)
			if err != nil {
				return nil, nil, err
			}
			r.consK.EnablePageCache(4 * pages * memsim.PageSize)
			r.consK.SetReadahead(1)
			return func(emit emitFn) error {
				var hit, unmap stopwatch
				for done := 0; done < faults; done += pages {
					as, mp, err := r.rmap(meta)
					if err != nil {
						return err
					}
					hit.start()
					err = sweep(as, meta.Start, meta.End)
					hit.stop()
					if err != nil {
						return err
					}
					unmap.start()
					err = mp.Unmap()
					unmap.stop()
					if err != nil {
						return err
					}
					as.Release()
				}
				emit("kernel.fault_hit_ns", hit.per(faults))
				emit("kernel.unmap_page_ns", unmap.per(faults))
				return nil
			}, noFree, nil
		}},

		{"kernel.Mapping.Prefetch", func() (func(emitFn) error, func(), error) {
			// One doorbell batch for the whole range, with the cache too small
			// to keep any of it: fetch + insert + evict per page.
			const pages = 2048
			r := newLWRig()
			meta, err := r.registered(pages)
			if err != nil {
				return nil, nil, err
			}
			r.consK.EnablePageCache(8 * memsim.PageSize)
			vpns := make([]memsim.VPN, pages)
			for i := range vpns {
				vpns[i] = memsim.PageOf(meta.Start) + memsim.VPN(i)
			}
			return func(emit emitFn) error {
				var sw stopwatch
				for done := 0; done < ops; done += pages {
					as, mp, err := r.rmap(meta)
					if err != nil {
						return err
					}
					sw.start()
					err = mp.Prefetch(vpns)
					sw.stop()
					if err != nil {
						return err
					}
					as.Release()
				}
				emit("kernel.prefetch_page_ns", sw.per(ops))
				return nil
			}, noFree, nil
		}},

		{"objrt.Heap.Alloc (bump)", func() (func(emitFn) error, func(), error) {
			h := objrt.NewHeap(lwProdHeap, lwProdHeap+lwHeapSize)
			addrs := make([]uint64, ops)
			return func(emit emitFn) error {
				var sw stopwatch
				sw.start()
				for i := range addrs {
					a, err := h.Alloc(64)
					if err != nil {
						return err
					}
					addrs[i] = a
				}
				sw.stop()
				emit("objrt.alloc_bump_ns", sw.per(len(addrs)))
				return h.FreeBatch(addrs) // back to an empty heap
			}, noFree, nil
		}},

		{"objrt.Heap.Alloc (10k-hole free list)", func() (func(emitFn) error, func(), error) {
			// 10k holes of 32 bytes none of which fits a 48-byte request:
			// first-fit walks the whole list before it bumps.
			const holes = 10000
			h := objrt.NewHeap(lwProdHeap, lwProdHeap+lwHeapSize)
			var odd []uint64
			for i := 0; i < 2*holes; i++ {
				a, err := h.Alloc(32)
				if err != nil {
					return nil, nil, err
				}
				if i%2 == 1 {
					odd = append(odd, a)
				}
			}
			if err := h.FreeBatch(odd); err != nil {
				return nil, nil, err
			}
			addrs := make([]uint64, ops)
			return func(emit emitFn) error {
				var sw stopwatch
				sw.start()
				for i := range addrs {
					a, err := h.Alloc(48)
					if err != nil {
						return err
					}
					addrs[i] = a
				}
				sw.stop()
				emit("objrt.alloc_fragmented_ns", sw.per(len(addrs)))
				return h.FreeBatch(addrs) // the holes stay, the bumped blocks go
			}, noFree, nil
		}},

		{"objrt.Runtime.GC", func() (func(emitFn) error, func(), error) {
			// An invocation's epilogue: everything it allocated is garbage
			// except a small rooted list.
			garbage := 2 * ops
			r := newLWRig()
			rt, err := objrt.NewRuntime(r.space(r.prodM), objrt.Config{HeapStart: lwProdHeap, HeapEnd: lwProdHeap + lwHeapSize})
			if err != nil {
				return nil, nil, err
			}
			keep, err := rt.NewIntList(make([]int64, 64))
			if err != nil {
				return nil, nil, err
			}
			rt.AddRoot(keep)
			return func(emit emitFn) error {
				for i := 0; i < garbage; i++ {
					if _, err := rt.NewInt(int64(i)); err != nil {
						return err
					}
				}
				var sw stopwatch
				sw.start()
				st, err := rt.GC()
				sw.stop()
				if err != nil || st.Swept != garbage {
					return fmt.Errorf("GC swept %d of %d objects: %v", st.Swept, garbage, err)
				}
				emit("objrt.gc_sweep_obj_ns", sw.per(garbage))
				return nil
			}, noFree, nil
		}},

		{"objrt.Pickle+Unpickle (dataframe)", func() (func(emitFn) error, func(), error) {
			return codecBench(z, "df", lwDataFrame)
		}},
		{"objrt.Pickle+Unpickle+PlanPrefetch (list(int))", func() (func(emitFn) error, func(), error) {
			return codecBench(z, "intlist", lwIntList(2*ops))
		}},

		{"objrt.Obj.Bytes (resident rmap view)", func() (func(emitFn) error, func(), error) {
			const size, reads = 4 << 20, 3
			p, err := newLWPair()
			if err != nil {
				return nil, nil, err
			}
			obj, err := p.prodRT.NewBytes(make([]byte, size))
			if err != nil {
				return nil, nil, err
			}
			meta, err := p.register()
			if err != nil {
				return nil, nil, err
			}
			mp, err := p.consK.Rmap(p.consRT.AS(), meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
			if err != nil {
				return nil, nil, err
			}
			if err := mp.PrefetchRange(meta.Start, meta.End); err != nil {
				return nil, nil, err
			}
			view := obj.View(p.consRT)
			return func(emit emitFn) error {
				var sw stopwatch
				for i := 0; i < reads; i++ {
					sw.start()
					b, err := view.Bytes()
					sw.stop()
					if err != nil || len(b) != size {
						return fmt.Errorf("Bytes through the view: %d bytes, %v", len(b), err)
					}
				}
				emit("objrt.read_remote_ns_per_kib", sw.per(reads*size/1024))
				return nil
			}, noFree, nil
		}},

		{"transport.EncodeEvent+DecodeEvent+Store.Put+Get", func() (func(emitFn) error, func(), error) {
			const size = 1 << 20
			events := ops >> 10
			payload := make([]byte, size)
			rng := &splitmix{s: 2}
			for i := range payload {
				payload[i] = byte(rng.next())
			}
			store := transport.NewDrTM(simtime.DefaultCostModel())
			meter := simtime.NewMeter()
			return func(emit emitFn) error {
				var enc, putget stopwatch
				dec := stopwatch{mem: true}
				for i := 0; i < events; i++ {
					enc.start()
					raw, err := transport.EncodeEvent("r1-produce#0", "produce", "dev.rmmap.state", payload, false)
					enc.stop()
					if err != nil {
						return err
					}
					dec.start()
					_, data, err := transport.DecodeEvent(raw)
					dec.stop()
					if err != nil || len(data) != size {
						return fmt.Errorf("DecodeEvent: %d bytes, %v", len(data), err)
					}
					putget.start()
					err = store.Put(meter, "k", payload)
					if err == nil {
						_, err = store.Get(meter, "k")
					}
					putget.stop()
					if err != nil {
						return err
					}
					store.Delete("k")
				}
				kib := events * size / 1024
				emit("transport.encode_ns_per_kib", enc.per(kib))
				emit("transport.decode_ns_per_kib", dec.per(kib))
				emit("transport.decode_bytes_per_kib", float64(dec.bytes)/float64(kib))
				emit("transport.store_putget_ns_per_kib", putget.per(kib))
				return nil
			}, noFree, nil
		}},

		{"ctrl.Sharded.Register+Release (1 shard)", func() (func(emitFn) error, func(), error) { return churnBench(z, 1) }},
		{"ctrl.Sharded.Register+Release (16 shards)", func() (func(emitFn) error, func(), error) { return churnBench(z, 16) }},

		{"ctrl.Coordinator.Recover", func() (func(emitFn) error, func(), error) {
			// No compaction, so the whole history is in the journal and
			// recovery replays all of it.
			c := ctrl.New(simtime.DefaultCostModel())
			c.SnapshotEvery = 0
			if err := c.Start(); err != nil {
				return nil, nil, err
			}
			for i := 0; i < 2*ops; i++ {
				if err := c.Register(ctrl.RegRef{ID: uint64(i), Key: mix64(uint64(i))}, i%4, nil); err != nil {
					return nil, nil, err
				}
			}
			return func(emit emitFn) error {
				c.Crash()
				var sw stopwatch
				sw.start()
				rr, err := c.Recover()
				sw.stop()
				if err != nil || rr.Replayed < 2*ops {
					return fmt.Errorf("Recover replayed %d records: %v", rr.Replayed, err)
				}
				emit("ctrl.recover_ns_per_record", sw.per(rr.Replayed))
				return nil
			}, noFree, nil
		}},

		{"admit.Controller.Submit+Next+Record, shed", func() (func(emitFn) error, func(), error) {
			tenants := make([]string, soakTenants)
			for i := range tenants {
				tenants[i] = load.TenantName(i)
			}
			through := admit.NewController(admit.Config{})
			limit := through.InflightLimit()
			// A second controller whose queue is kept full: every arrival
			// sheds, on queue-full until its tenant's breaker opens and on the
			// breaker after.
			full := admit.NewController(admit.Config{})
			for i := 0; i < admit.DefaultQueueLimit; i++ {
				if act, _ := full.Submit(0, &admit.Request{Tenant: tenants[i%len(tenants)]}, limit, 0); act != admit.ActionQueue {
					return nil, nil, fmt.Errorf("filling the admission queue: action %v", act)
				}
			}
			reqs := make([]admit.Request, ops)
			now := simtime.Time(0)
			return func(emit emitFn) error {
				var adm, shed stopwatch
				for i := range reqs {
					reqs[i] = admit.Request{Tenant: tenants[i%len(tenants)], Deadline: now.Add(soakDeadline)}
				}
				adm.start()
				for i := range reqs {
					now += simtime.Time(simtime.Microsecond)
					// All slots busy, queue empty: the request queues, is
					// popped at once, and completes.
					if act, _ := through.Submit(now, &reqs[i], limit, 0); act != admit.ActionQueue {
						return fmt.Errorf("admit: action %v, want queue", act)
					}
					if _, reason, ok := through.Next(now); !ok || reason != admit.ReasonNone {
						return fmt.Errorf("admit: queued request did not pop (%v)", reason)
					}
					through.Record(now, reqs[i].Tenant, admit.OutcomeOK)
				}
				adm.stop()
				through.TakeTransitions()
				shed.start()
				for i := range reqs {
					now += simtime.Time(simtime.Microsecond)
					if act, _ := full.Submit(now, &reqs[i], limit, 0); act != admit.ActionShed {
						return fmt.Errorf("shed: action %v, want shed", act)
					}
				}
				shed.stop()
				full.TakeTransitions()
				emit("admit.admit_ns", adm.per(len(reqs)))
				emit("admit.shed_ns", shed.per(len(reqs)))
				return nil
			}, noFree, nil
		}},

		{"platform.Engine.Run (3 empty stages, rmmap)", func() (func(emitFn) error, func(), error) {
			wf := noopWorkflow()
			requests := ops/wf.TotalInvocations() + 1
			e, err := platform.NewEngine(wf, platform.ModeRMMAP, platform.Options{Workers: 1}, platform.ClusterConfig{Machines: 4, Pods: 16})
			if err != nil {
				return nil, nil, err
			}
			return func(emit emitFn) error {
				sw := stopwatch{mem: true}
				sw.start()
				for i := 0; i < requests; i++ {
					if _, err := e.Run(); err != nil {
						return err
					}
				}
				sw.stop()
				n := requests * wf.TotalInvocations()
				emit("platform.noop_invocation_ns", sw.per(n))
				emit("platform.noop_invocation_allocs", float64(sw.mallocs)/float64(n))
				return nil
			}, e.Cluster.Close, nil
		}},

		{"platform.NewEngine (10 machines, 80 pods)", func() (func(emitFn) error, func(), error) {
			const engines = 20
			return func(emit emitFn) error {
				var sw stopwatch
				for i := 0; i < engines; i++ {
					sw.start()
					e, err := platform.NewEngine(noopWorkflow(), platform.ModeRMMAP, platform.Options{Workers: 1}, platform.DefaultClusterConfig())
					sw.stop()
					if err != nil {
						return err
					}
					e.Cluster.Close()
				}
				emit("platform.new_engine_ms", sw.per(engines)/1e6)
				return nil
			}, noFree, nil
		}},

		{"platformbuilder.Recipe(spine-leaf).Build", func() (func(emitFn) error, func(), error) {
			const clusters = 20
			return func(emit emitFn) error {
				var sw stopwatch
				for i := 0; i < clusters; i++ {
					sw.start()
					b, err := platformbuilder.Recipe("spine-leaf", 16)
					var cl *platform.Cluster
					if err == nil {
						cl, err = b.Build()
					}
					sw.stop()
					if err != nil {
						return err
					}
					cl.Close()
				}
				emit("platformbuilder.build_ms", sw.per(clusters)/1e6)
				return nil
			}, noFree, nil
		}},

		{"load.Poisson", func() (func(emitFn) error, func(), error) {
			return func(emit emitFn) error {
				var sw stopwatch
				sw.start()
				events := load.Poisson(load.PoissonSpec{Rate: float64(2 * ops), Horizon: simtime.Second,
					Tenants: soakTenants, Deadline: soakDeadline, Seed: 1})
				sw.stop()
				if len(events) < ops {
					return fmt.Errorf("Poisson made %d events", len(events))
				}
				emit("load.gen_event_ns", sw.per(len(events)))
				return nil
			}, noFree, nil
		}},
	}
}

// churnBench is register+release churn against a standing directory of
// 20k registrations. It is sized so that the journal passes the 256 KiB
// compaction trigger several times per batch on one shard: snapshotting
// the whole directory is the cost that sharding divides, and an earlier
// smoke-sized version of this measurement never took a single snapshot.
func churnBench(z lwSizes, shards int) (func(emitFn) error, func(), error) {
	const live = 20000
	suffix := fmt.Sprintf("_s%d", shards)
	plane := ctrl.NewSharded(simtime.DefaultCostModel(), shards)
	if err := plane.Start(); err != nil {
		return nil, nil, err
	}
	next := uint64(0)
	ref := func() ctrl.RegRef {
		next++
		return ctrl.RegRef{ID: next, Key: mix64(next)}
	}
	for i := 0; i < live; i++ {
		if err := plane.Register(ref(), i%4, nil); err != nil {
			return nil, nil, err
		}
	}
	// 10240 pairs journal about 560 KiB — two compactions on one shard —
	// at any z: a smaller batch would measure churn without its main cost.
	refs := make([]ctrl.RegRef, max(z.ops, lwFull.ops))
	return func(emit emitFn) error {
		for i := range refs {
			refs[i] = ref()
		}
		before := plane.Stats()
		var sw stopwatch
		sw.start()
		for i, r := range refs {
			if err := plane.Register(r, i%4, nil); err != nil {
				return err
			}
			if _, _, err := plane.Release(r); err != nil {
				return err
			}
		}
		sw.stop()
		did := plane.Stats().Sub(before)
		if got := plane.Live(); got != live {
			return fmt.Errorf("%d live registrations after churn, want %d", got, live)
		}
		emit("ctrl.churn_ns"+suffix, sw.per(len(refs)))
		if shards == 1 {
			if did.Snapshots == 0 {
				return fmt.Errorf("ctrl churn on one shard took no snapshot: the bench does not reach compaction")
			}
			emit("ctrl.snapshots_s1", float64(did.Snapshots))
			emit("ctrl.journal_bytes_per_op", float64(did.JournalBytes)/float64(did.Appends))
		}
		return nil
	}, noFree, nil
}

func noopWorkflow() *platform.Workflow {
	nothing := func(*platform.Ctx) (objrt.Obj, error) { return objrt.Obj{}, nil }
	return &platform.Workflow{
		Name: "noop",
		Functions: []*platform.FunctionSpec{
			{Name: "a", Instances: 1, Handler: nothing},
			{Name: "b", Instances: 1, Handler: nothing},
			{Name: "c", Instances: 1, Handler: nothing},
		},
		Edges: []platform.Edge{{From: "a", To: "b"}, {From: "b", To: "c"}},
	}
}

// --- producer/consumer runtimes -------------------------------------------

// lwPair is the rig plus a language runtime on each side: what a state
// transfer needs.
type lwPair struct {
	*lwRig
	prodRT, consRT *objrt.Runtime
	regs           uint64
}

func newLWPair() (*lwPair, error) {
	p := &lwPair{lwRig: newLWRig()}
	var err error
	if p.prodRT, err = objrt.NewRuntime(p.space(p.prodM), objrt.Config{HeapStart: lwProdHeap, HeapEnd: lwProdHeap + lwHeapSize}); err != nil {
		return nil, err
	}
	p.consRT, err = objrt.NewRuntime(p.space(p.consM), objrt.Config{HeapStart: lwConsHeap, HeapEnd: lwConsHeap + lwHeapSize})
	return p, err
}

// register publishes the producer's used heap.
func (p *lwPair) register() (kernel.VMMeta, error) {
	p.regs++
	start, _ := p.prodRT.Heap().Bounds()
	end := (p.prodRT.Heap().Used() + memsim.PageSize) &^ uint64(memsim.PageSize-1)
	return p.prodK.RegisterMem(p.prodRT.AS(), kernel.FuncID(p.regs), kernel.Key(mix64(p.regs)), start, end)
}

// The two fixed states the layerwalk moves: a pandas-like dataframe (few
// large buffers plus thousands of small strings) and a list of boxed ints
// (nothing but small objects).
func lwDataFrame(rt *objrt.Runtime) (objrt.Obj, error) { return workloads.GenTrades(rt, 2000, 1) }

func lwIntList(n int) func(*objrt.Runtime) (objrt.Obj, error) {
	return func(rt *objrt.Runtime) (objrt.Obj, error) {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i)
		}
		return rt.NewIntList(vals)
	}
}

// codecBench pickles a state and unpickles it onto the consumer's heap,
// sweeping the consumer between calls as an invocation's epilogue would.
// On the object-dense list it also times the prefetch traversal.
func codecBench(z lwSizes, kind string, build func(*objrt.Runtime) (objrt.Obj, error)) (func(emitFn) error, func(), error) {
	p, err := newLWPair()
	if err != nil {
		return nil, nil, err
	}
	root, err := build(p.prodRT)
	if err != nil {
		return nil, nil, err
	}
	meter := simtime.NewMeter()
	data, _, err := objrt.Pickle(root, meter)
	if err != nil {
		return nil, nil, err
	}
	rounds := z.ops*1024/len(data) + 1
	return func(emit emitFn) error {
		var pickle, walk stopwatch
		unpickle := stopwatch{mem: true}
		for i := 0; i < rounds; i++ {
			pickle.start()
			wire, _, err := objrt.Pickle(root, meter)
			pickle.stop()
			if err != nil {
				return err
			}
			unpickle.start()
			_, err = objrt.Unpickle(p.consRT, wire, meter)
			unpickle.stop()
			if err != nil {
				return err
			}
			if _, err := p.consRT.GC(); err != nil {
				return err
			}
		}
		kib := rounds * len(data) / 1024
		emit("objrt.pickle_"+kind+"_ns_per_kib", pickle.per(kib))
		emit("objrt.unpickle_"+kind+"_ns_per_kib", unpickle.per(kib))
		if kind == "df" {
			emit("objrt.unpickle_allocs_per_kib", float64(unpickle.mallocs)/float64(kib))
			return nil
		}
		walk.start()
		plan, err := objrt.PlanPrefetch(root, 0, meter)
		walk.stop()
		if err != nil {
			return err
		}
		emit("objrt.walk_obj_ns", walk.per(plan.Objects))
		return nil
	}, noFree, nil
}

// --- one transfer, step by step --------------------------------------------

// walkTransfers moves each fixed state from producer to consumer under the
// four approaches the workloads use, one span per call into a layer, and
// checks that what arrives equals what left.
func walkTransfers(tr *tracer, z lwSizes) error {
	states := []struct {
		name  string
		build func(*objrt.Runtime) (objrt.Obj, error)
	}{{"dataframe", lwDataFrame}, {"list(int)", lwIntList(2 * z.ops)}}
	for _, st := range states {
		for _, mode := range []platform.Mode{platform.ModeMessaging, platform.ModeStorageDrTM, platform.ModeRMMAP, platform.ModeRMMAPPrefetch} {
			if err := tr.do(fmt.Sprintf("transfer %s %s", st.name, mode), func() error {
				return walkTransfer(tr, st.build, mode)
			}); err != nil {
				return fmt.Errorf("transfer %s %s: %w", st.name, mode, err)
			}
		}
	}
	return nil
}

func walkTransfer(tr *tracer, build func(*objrt.Runtime) (objrt.Obj, error), mode platform.Mode) error {
	var p *lwPair
	var root, arrived objrt.Obj
	step := func(name string, f func() error) error { return tr.do(name, f) }
	if err := step("rig: machines, fabric, kernels, runtimes", func() (err error) { p, err = newLWPair(); return }); err != nil {
		return err
	}
	if err := step("objrt build state", func() (err error) { root, err = build(p.prodRT); return }); err != nil {
		return err
	}
	prodMeter, consMeter := p.prodRT.AS().Meter(), p.consRT.AS().Meter()

	if !mode.IsRMMAP() {
		var wire []byte
		if err := step("objrt.Pickle", func() (err error) { wire, _, err = objrt.Pickle(root, prodMeter); return }); err != nil {
			return err
		}
		if mode == platform.ModeMessaging {
			var event []byte
			if err := step("transport.EncodeEvent", func() (err error) {
				event, err = transport.EncodeEvent("r1-produce#0", "produce", "dev.rmmap.state", wire, false)
				return
			}); err != nil {
				return err
			}
			msg := transport.NewMessaging(p.cm)
			_ = step("transport.Messaging.Charge", func() error { msg.Charge(prodMeter, len(event)); return nil })
			if err := step("transport.DecodeEvent", func() (err error) { _, wire, err = transport.DecodeEvent(event); return }); err != nil {
				return err
			}
		} else {
			store := transport.NewDrTM(p.cm)
			if err := step("transport.Store.Put", func() error { return store.Put(prodMeter, "r1/produce#0", wire) }); err != nil {
				return err
			}
			if err := step("transport.Store.Get", func() (err error) { wire, err = store.Get(consMeter, "r1/produce#0"); return }); err != nil {
				return err
			}
		}
		if err := step("objrt.Unpickle", func() (err error) { arrived, err = objrt.Unpickle(p.consRT, wire, consMeter); return }); err != nil {
			return err
		}
		return step("objrt.Equal (read both)", func() error { return mustEqual(root, arrived) })
	}

	var meta kernel.VMMeta
	if err := step("kernel.RegisterMem", func() (err error) { meta, err = p.register(); return }); err != nil {
		return err
	}
	var plan *objrt.PrefetchPlan
	if mode == platform.ModeRMMAPPrefetch {
		if err := step("objrt.PlanPrefetch", func() (err error) { plan, err = objrt.PlanPrefetch(root, 0, prodMeter); return }); err != nil {
			return err
		}
	}
	var mp *kernel.Mapping
	if err := step("kernel.Rmap", func() (err error) {
		mp, err = p.consK.Rmap(p.consRT.AS(), meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
		return
	}); err != nil {
		return err
	}
	if plan != nil {
		if err := step("kernel.Mapping.Prefetch", func() error { return mp.Prefetch(plan.Pages) }); err != nil {
			return err
		}
	}
	// Reading through the view is what faults the remaining pages in.
	if err := step("objrt.Equal (read through rmap view)", func() error { return mustEqual(root, root.View(p.consRT)) }); err != nil {
		return err
	}
	if err := step("kernel.Mapping.Unmap", mp.Unmap); err != nil {
		return err
	}
	return step("kernel.DeregisterMem", func() error { return p.prodK.DeregisterMem(meta.ID, meta.Key) })
}

func mustEqual(a, b objrt.Obj) error {
	same, err := objrt.Equal(a, b)
	if err == nil && !same {
		err = fmt.Errorf("the state that arrived differs from the one that left")
	}
	return err
}

// runLayerwalk is the layerwalk child: the step-by-step transfers, then
// every bench.
func runLayerwalk(c *runCtx, z lwSizes, rep *childReport) error {
	if err := c.tr.do("transfers", func() error { return walkTransfers(c.tr, z) }); err != nil {
		rep.Problems = append(rep.Problems, err.Error())
	}
	units := metricByName(layerwalkMetrics)
	rep.Layer = map[string]summary{}
	for _, b := range layerBenches(z) {
		values := map[string][]float64{}
		err := c.tr.do(b.name, func() error {
			var batch func(emitFn) error
			var free func()
			if err := c.tr.do(b.name+": init", func() (err error) { batch, free, err = b.init(); return }); err != nil {
				return err
			}
			defer func() { _ = c.tr.do(b.name+": free", func() error { free(); return nil }) }()
			for i := 0; i <= z.batches; i++ {
				emit := func(metric string, v float64) { values[metric] = append(values[metric], v) }
				if i == 0 {
					emit = func(string, float64) {} // grows pools and maps; not steady state
				}
				if err := c.tr.do(b.name+": batch", func() error { return batch(emit) }); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: %v", b.name, err))
			continue
		}
		for name, vs := range values {
			m, ok := units[name]
			if !ok {
				return fmt.Errorf("%s emits %q, which is not a declared metric", b.name, name)
			}
			rep.Layer[name] = summarize(m.Unit, vs)
		}
	}
	for _, m := range layerwalkMetrics {
		if _, ok := rep.Layer[m.Name]; !ok {
			rep.Problems = append(rep.Problems, "no bench produced "+m.Name)
		}
	}
	return nil
}
