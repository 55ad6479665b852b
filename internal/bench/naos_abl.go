package bench

import (
	"rmmap/internal/kernel"
	"rmmap/internal/memsim"
	"rmmap/internal/naos"
	"rmmap/internal/objrt"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
)

// runFig16b compares RMMAP against Naos on the Fig 16b microbenchmark: a
// Java map of (Integer → char[5]) pairs, swept over entry counts.
func runFig16b(scale float64) (Result, error) {
	cm := simtime.DefaultCostModel()
	t := &Table{Header: []string{"entries", "naos", "rmmap", "rmmap advantage"}}
	for _, n := range []int{1000, 10000, 50000} {
		n = scaleInt(n, scale)
		// Naos path.
		rig, err := newMicroRig(cm)
		if err != nil {
			return nil, err
		}
		root, err := javaMapObj(rig.ProdRT, n)
		if err != nil {
			return nil, err
		}
		naosMeter := simtime.NewMeter()
		if _, _, err := naos.Send(root, rig.ConsRT, naos.DefaultProfile(cm), naosMeter); err != nil {
			return nil, err
		}

		// RMMAP path on a fresh rig. The heap holds exactly the state,
		// so the prefetch plan degenerates to the registered range —
		// no traversal (the asymmetry RMMAP wins by: Naos must walk
		// and rewrite every object, RMMAP touches page tables).
		rig2, err := newMicroRig(cm)
		if err != nil {
			return nil, err
		}
		root2, err := javaMapObj(rig2.ProdRT, n)
		if err != nil {
			return nil, err
		}
		x, err := rig2.transfer(root2, apRMMAPRange)
		if err != nil {
			return nil, err
		}
		nv, rv := float64(naosMeter.Total()), float64(x.E2E())
		t.add(n, simtime.Duration(naosMeter.Total()), x.E2E(), pct(nv-rv, nv))
	}
	return Result{t}, nil
}

func javaMapObj(rt *objrt.Runtime, n int) (objrt.Obj, error) {
	pairs := make([][2]objrt.Obj, n)
	for i := range pairs {
		k, err := rt.NewInt(int64(i))
		if err != nil {
			return objrt.Obj{}, err
		}
		v, err := rt.NewBytes([]byte{byte(i), byte(i >> 8), 'a', 'b', 'c'})
		if err != nil {
			return objrt.Obj{}, err
		}
		pairs[i] = [2]objrt.Obj{k, v}
	}
	return rt.NewDict(pairs)
}

func init() {
	register(Experiment{
		ID:     "abl-prefetch",
		Title:  "Ablation: prefetch traversal threshold (§4.4)",
		Expect: "unbounded traversal hurts object-heavy states; thresholds trade faults for traversal",
		Run:    runAblPrefetch,
	})
	register(Experiment{
		ID:     "abl-batch",
		Title:  "Ablation: doorbell batching vs per-page reads (§4.4)",
		Expect: "batched prefetch reads beat one-sided reads per fault by a wide margin",
		Run:    runAblBatch,
	})
	register(Experiment{
		ID:     "abl-conn",
		Title:  "Ablation: kernel-space vs user-space QP establishment (§4.1)",
		Expect: "user-space connect (10 ms) dwarfs the transfer; kernel-space (10 us) is negligible",
		Run:    runAblConn,
	})
	register(Experiment{
		ID:     "abl-scope",
		Title:  "Ablation: map-the-heap vs map-the-whole-address-space (§6)",
		Expect: "heap-only registration is cheaper; whole-space pays for resident library pages",
		Run:    runAblScope,
	})
}

// runAblPrefetch sweeps the traversal threshold on a list(int).
func runAblPrefetch(scale float64) (Result, error) {
	cm := simtime.DefaultCostModel()
	n := scaleInt(100000, scale)
	t := &Table{Header: []string{"threshold", "traversed", "prefetched-pages", "T", "N", "E2E", "faults"}}
	for _, thr := range []int{0, 100, 1000, 10000} {
		rig, err := newMicroRig(cm)
		if err != nil {
			return nil, err
		}
		vals := make([]int64, n)
		root, err := rig.ProdRT.NewIntList(vals)
		if err != nil {
			return nil, err
		}
		prodMeter, consMeter := simtime.NewMeter(), simtime.NewMeter()
		rig.prodAS.SetMeter(prodMeter)
		rig.consAS.SetMeter(consMeter)
		start, _ := rig.ProdRT.Heap().Bounds()
		end := (rig.ProdRT.Heap().Used() + memsim.PageSize) &^ uint64(memsim.PageSize-1)
		meta, err := rig.prodK.RegisterMem(rig.prodAS, 1, 1, start, end)
		if err != nil {
			return nil, err
		}
		plan, err := objrt.PlanPrefetch(root, thr, prodMeter)
		if err != nil {
			return nil, err
		}
		mp, err := rig.consK.Rmap(rig.consAS, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
		if err != nil {
			return nil, err
		}
		if err := mp.Prefetch(plan.Pages); err != nil {
			return nil, err
		}
		if err := checksum(root.View(rig.ConsRT)); err != nil {
			return nil, err
		}
		total := prodMeter.Total() + consMeter.Total()
		t.add(thr, plan.Objects, len(plan.Pages),
			prodMeter.Get(simtime.CatRegister),
			consMeter.Get(simtime.CatMap)+consMeter.Get(simtime.CatFault),
			total, rig.consAS.Faults())
	}
	return Result{t}, nil
}

// runAblBatch compares doorbell-batched prefetch against per-fault reads
// for a page-dense ndarray.
func runAblBatch(scale float64) (Result, error) {
	cm := simtime.DefaultCostModel()
	n := scaleInt(500000, scale)
	t := &Table{Header: []string{"mode", "pages", "N", "faults"}}
	for _, batched := range []bool{true, false} {
		rig, err := newMicroRig(cm)
		if err != nil {
			return nil, err
		}
		root, err := rig.ProdRT.NewNDArray([]int{n}, make([]float64, n))
		if err != nil {
			return nil, err
		}
		ap := apRMMAP
		if batched {
			ap = apRMMAPPrefetch
		}
		x, err := rig.transfer(root, ap)
		if err != nil {
			return nil, err
		}
		name := "per-fault reads"
		if batched {
			name = "doorbell batch"
		}
		t.add(name, (n*8)/memsim.PageSize, x.N, x.Faults)
	}
	return Result{t}, nil
}

// runAblConn compares QP-establishment paths.
func runAblConn(scale float64) (Result, error) {
	cm := simtime.DefaultCostModel()
	n := scaleInt(50000, scale)
	t := &Table{Header: []string{"connect path", "first-transfer E2E", "steady-state E2E"}}
	for _, mode := range []rdma.ConnectMode{rdma.ConnectKernel, rdma.ConnectUser} {
		rig, err := newMicroRig(cm)
		if err != nil {
			return nil, err
		}
		// Swap the consumer kernel's NIC mode.
		nic := rdma.NewNIC(1, rig.fabric)
		nic.Mode = mode
		rig.consK = kernel.New(rig.consM, nic, cm)
		root, err := rig.ProdRT.NewNDArray([]int{n}, make([]float64, n))
		if err != nil {
			return nil, err
		}
		first, err := rig.transfer(root, apRMMAPPrefetch)
		if err != nil {
			return nil, err
		}
		second, err := rig.transfer(root, apRMMAPPrefetch)
		if err != nil {
			return nil, err
		}
		name := "kernel-space (KRCore)"
		if mode == rdma.ConnectUser {
			name = "user-space verbs"
		}
		t.add(name, first.E2E(), second.E2E())
	}
	return Result{t}, nil
}

// runAblScope compares register scopes with a library-heavy producer.
func runAblScope(scale float64) (Result, error) {
	cm := simtime.DefaultCostModel()
	n := scaleInt(50000, scale)
	textPages := 4096 // a 16 MB resident library footprint
	t := &Table{Header: []string{"scope", "registered-pages", "T(register)", "note"}}
	for _, whole := range []bool{false, true} {
		rig, err := newMicroRig(cm)
		if err != nil {
			return nil, err
		}
		// Model the resident library as extra touched pages below the
		// heap when whole-space scope is used.
		textStart := microProdHeap - uint64(textPages)*memsim.PageSize
		if whole {
			if err := rig.prodAS.MapAnon(textStart, microProdHeap, memsim.SegText, true); err != nil {
				return nil, err
			}
			buf := []byte{1}
			for i := 0; i < textPages; i++ {
				if err := rig.prodAS.Write(textStart+uint64(i)*memsim.PageSize, buf); err != nil {
					return nil, err
				}
			}
		}
		root, err := rig.ProdRT.NewIntList(make([]int64, n))
		if err != nil {
			return nil, err
		}
		_ = root
		prodMeter := simtime.NewMeter()
		rig.prodAS.SetMeter(prodMeter)
		start, _ := rig.ProdRT.Heap().Bounds()
		if whole {
			start = textStart
		}
		end := (rig.ProdRT.Heap().Used() + memsim.PageSize) &^ uint64(memsim.PageSize-1)
		meta, err := rig.prodK.RegisterMem(rig.prodAS, 1, 1, start, end)
		if err != nil {
			return nil, err
		}
		name, note := "heap-only", "unsafe if objects reference .text (callbacks)"
		if whole {
			name, note = "whole-space", "the paper's final choice"
		}
		t.add(name, meta.Pages, prodMeter.Get(simtime.CatRegister), note)
	}
	return Result{t}, nil
}
