package bench

import (
	"fmt"

	"rmmap/internal/kernel"
	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
	"rmmap/internal/transport"
	"rmmap/internal/workloads"
)

// microRig is the two-pod state-transfer microbenchmark (§5.2): one
// producer machine, one consumer machine, all five transfer approaches
// over the same object.
type microRig struct {
	cm     *simtime.CostModel
	fabric *rdma.SimFabric
	prodM  *memsim.Machine
	consM  *memsim.Machine
	prodK  *kernel.Kernel
	consK  *kernel.Kernel
	prodAS *memsim.AddressSpace
	consAS *memsim.AddressSpace
	ProdRT *objrt.Runtime
	ConsRT *objrt.Runtime
	msg    *transport.Messaging
	pocket transport.Store
	drtm   transport.Store
	nextID uint64
}

const (
	microProdHeap = uint64(0x1_0000_0000)
	microConsHeap = uint64(0x9_0000_0000)
	microHeapSize = uint64(2 << 30)
)

func newMicroRig(cm *simtime.CostModel) (*microRig, error) {
	r := &microRig{cm: cm, fabric: rdma.NewSimFabric(cm)}
	r.prodM = memsim.NewMachine(0)
	r.consM = memsim.NewMachine(1)
	r.fabric.Attach(r.prodM)
	r.fabric.Attach(r.consM)
	r.prodK = kernel.New(r.prodM, rdma.NewNIC(0, r.fabric), cm)
	r.consK = kernel.New(r.consM, rdma.NewNIC(1, r.fabric), cm)
	r.prodK.ServeRPC(r.fabric)
	r.consK.ServeRPC(r.fabric)
	r.prodAS = memsim.NewAddressSpace(r.prodM, cm)
	r.prodAS.SetMeter(simtime.NewMeter())
	r.consAS = memsim.NewAddressSpace(r.consM, cm)
	r.consAS.SetMeter(simtime.NewMeter())
	var err error
	r.ProdRT, err = objrt.NewRuntime(r.prodAS, objrt.Config{HeapStart: microProdHeap, HeapEnd: microProdHeap + microHeapSize})
	if err != nil {
		return nil, err
	}
	r.ConsRT, err = objrt.NewRuntime(r.consAS, objrt.Config{HeapStart: microConsHeap, HeapEnd: microConsHeap + microHeapSize})
	if err != nil {
		return nil, err
	}
	r.msg = transport.NewMessaging(cm)
	r.pocket = transport.NewPocket(cm)
	r.drtm = transport.NewDrTM(cm)
	return r, nil
}

// approach names match the paper's legend.
type approach int

const (
	apMessaging approach = iota
	apPocket
	apDrTM
	apRMMAP
	apRMMAPPrefetch
	numApproaches
)

// apRMMAPRange prefetches the whole registered range instead of a
// traversal-derived page set — precise and traversal-free when the heap
// holds only the state (used by the Naos comparison).
const apRMMAPRange = approach(100)

var approachNames = [...]string{
	apMessaging:     "messaging",
	apPocket:        "storage(pocket)",
	apDrTM:          "storage(rdma)",
	apRMMAP:         "rmmap",
	apRMMAPPrefetch: "rmmap(prefetch)",
}

func (a approach) String() string {
	if a == apRMMAPRange {
		return "rmmap(range-prefetch)"
	}
	return approachNames[a]
}

// xfer is one measured transfer broken into the paper's T/N/R stages.
type xfer struct {
	T, N, R simtime.Duration
	Wire    int // serialized bytes (0 for rmmap)
	Faults  int
}

// E2E is the summed transfer time.
func (x xfer) E2E() simtime.Duration { return x.T + x.N + x.R }

// transfer moves root from producer to consumer under the approach and
// fully materializes it at the consumer (checksum walk), returning the
// stage breakdown. Consumer-side pure compute (reading already-local
// data) is excluded, matching the paper's stage definitions.
func (r *microRig) transfer(root objrt.Obj, ap approach) (xfer, error) {
	var x xfer
	prodMeter := simtime.NewMeter()
	consMeter := simtime.NewMeter()
	r.prodAS.SetMeter(prodMeter)
	r.consAS.SetMeter(consMeter)
	defer r.prodAS.SetMeter(simtime.NewMeter())
	defer r.consAS.SetMeter(simtime.NewMeter())

	switch ap {
	case apMessaging, apPocket, apDrTM:
		data, _, err := objrt.Pickle(root, prodMeter)
		if err != nil {
			return x, err
		}
		x.Wire = len(data)
		netMeter := simtime.NewMeter()
		switch ap {
		case apMessaging:
			r.msg.Charge(netMeter, len(data))
		case apPocket:
			if err := r.pocket.Put(netMeter, "k", data); err != nil {
				return x, err
			}
			if _, err := r.pocket.Get(netMeter, "k"); err != nil {
				return x, err
			}
		case apDrTM:
			if err := r.drtm.Put(netMeter, "k", data); err != nil {
				return x, err
			}
			if _, err := r.drtm.Get(netMeter, "k"); err != nil {
				return x, err
			}
		}
		out, err := objrt.Unpickle(r.ConsRT, data, consMeter)
		if err != nil {
			return x, err
		}
		if err := checksum(out); err != nil {
			return x, err
		}
		x.T = prodMeter.Get(simtime.CatSerialize)
		x.N = netMeter.Total()
		x.R = consMeter.Get(simtime.CatDeserialize)
		return x, nil

	case apRMMAP, apRMMAPPrefetch, apRMMAPRange:
		r.nextID++
		id, key := kernel.FuncID(r.nextID), kernel.Key(r.nextID*7919)
		start, _ := r.ProdRT.Heap().Bounds()
		end := (r.ProdRT.Heap().Used() + memsim.PageSize) &^ uint64(memsim.PageSize-1)
		meta, err := r.prodK.RegisterMem(r.prodAS, id, key, start, end)
		if err != nil {
			return x, err
		}
		var plan *objrt.PrefetchPlan
		if ap == apRMMAPPrefetch {
			plan, err = objrt.PlanPrefetch(root, 0, prodMeter)
			if err != nil {
				return x, err
			}
		}
		mp, err := r.consK.Rmap(r.consAS, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
		if err != nil {
			return x, err
		}
		if plan != nil {
			if err := mp.Prefetch(plan.Pages); err != nil {
				return x, err
			}
		}
		if ap == apRMMAPRange {
			if err := mp.PrefetchRange(meta.Start, meta.End); err != nil {
				return x, err
			}
		}
		view := root.View(r.ConsRT)
		faultsBefore := r.consAS.Faults()
		if err := checksum(view); err != nil {
			return x, err
		}
		x.Faults = r.consAS.Faults() - faultsBefore
		x.T = prodMeter.Get(simtime.CatRegister)
		x.N = consMeter.Get(simtime.CatMap) + consMeter.Get(simtime.CatFault)
		x.R = 0
		if err := mp.Unmap(); err != nil {
			return x, err
		}
		if err := r.prodK.DeregisterMem(id, key); err != nil {
			return x, err
		}
		return x, nil
	}
	return x, fmt.Errorf("bench: unknown approach %d", ap)
}

// checksum walks the whole object, touching every payload byte — the
// consumer-side materialization that forces remote reads under rmmap.
func checksum(o objrt.Obj) error {
	tag, err := o.Tag()
	if err != nil {
		return err
	}
	switch tag {
	case objrt.TInt:
		_, err = o.Int()
	case objrt.TFloat:
		_, err = o.Float()
	case objrt.TStr:
		_, err = o.Str()
	case objrt.TBytes, objrt.TImage:
		if tag == objrt.TImage {
			_, err = o.Pixels()
		} else {
			_, err = o.Bytes()
		}
	case objrt.TNDArray:
		_, err = o.Data()
	case objrt.TList, objrt.TTuple, objrt.TForest:
		n, lerr := o.Len()
		if lerr != nil {
			return lerr
		}
		for i := 0; i < n; i++ {
			e, ierr := o.Index(i)
			if ierr != nil {
				return ierr
			}
			if err = checksum(e); err != nil {
				return err
			}
		}
	case objrt.TDict, objrt.TDataFrame:
		if tag == objrt.TDict {
			n, lerr := o.Len()
			if lerr != nil {
				return lerr
			}
			for i := 0; i < n; i++ {
				k, v, ierr := o.DictEntry(i)
				if ierr != nil {
					return ierr
				}
				if err = checksum(k); err != nil {
					return err
				}
				if err = checksum(v); err != nil {
					return err
				}
			}
		} else {
			_, cols, cerr := o.Columns()
			if cerr != nil {
				return cerr
			}
			for _, c := range cols {
				if err = checksum(c); err != nil {
					return err
				}
			}
		}
	case objrt.TTree:
		n, lerr := o.Len()
		if lerr != nil {
			return lerr
		}
		for i := 0; i < n; i++ {
			if _, err = o.Node(i); err != nil {
				return err
			}
		}
	}
	return err
}

// microTypes builds the Fig 11a data types at the given scale (1.0 =
// the calibrated defaults documented in EXPERIMENTS.md).
func microTypes(scale float64) []struct {
	Name  string
	Build func(rt *objrt.Runtime) (objrt.Obj, error)
} {
	strBytes := scaleInt(4<<20, scale)
	listStrLines := scaleInt(40000, scale)
	ndElems := scaleInt(785000, scale)
	listIntElems := scaleInt(100000, scale)
	dfRows := scaleInt(16000, scale)
	imgBytes := scaleInt(2<<20, scale)
	modelTrees := scaleInt(64, scale)

	return []struct {
		Name  string
		Build func(rt *objrt.Runtime) (objrt.Obj, error)
	}{
		{"int", func(rt *objrt.Runtime) (objrt.Obj, error) { return rt.NewInt(42) }},
		{"str", func(rt *objrt.Runtime) (objrt.Obj, error) {
			return rt.NewStr(workloads.GenBook(strBytes, 1))
		}},
		{"list(str)", func(rt *objrt.Runtime) (objrt.Obj, error) {
			lines := make([]string, listStrLines)
			for i := range lines {
				lines[i] = fmt.Sprintf("line-%08d of the split book payload", i)
			}
			return rt.NewStrList(lines)
		}},
		{"dict", func(rt *objrt.Runtime) (objrt.Obj, error) {
			// Nested map of depth six, ~380 B total (Fig 11a's dict).
			leaf, err := rt.NewInt(1)
			if err != nil {
				return objrt.Obj{}, err
			}
			cur := leaf
			for d := 0; d < 6; d++ {
				k, err := rt.NewStr(fmt.Sprintf("level-%d", d))
				if err != nil {
					return objrt.Obj{}, err
				}
				cur, err = rt.NewDict([][2]objrt.Obj{{k, cur}})
				if err != nil {
					return objrt.Obj{}, err
				}
			}
			return cur, nil
		}},
		{"numpy ndarray", func(rt *objrt.Runtime) (objrt.Obj, error) {
			return rt.NewNDArray([]int{ndElems}, make([]float64, ndElems))
		}},
		{"list(int)", func(rt *objrt.Runtime) (objrt.Obj, error) {
			vals := make([]int64, listIntElems)
			for i := range vals {
				vals[i] = int64(i)
			}
			return rt.NewIntList(vals)
		}},
		{"pandas dataframe", func(rt *objrt.Runtime) (objrt.Obj, error) {
			return workloads.GenTrades(rt, dfRows, 1)
		}},
		{"Pillow image", func(rt *objrt.Runtime) (objrt.Obj, error) {
			px := make([]byte, imgBytes)
			for i := range px {
				px[i] = byte(i)
			}
			side := 1
			for side*side < imgBytes {
				side++
			}
			return rt.NewImage(side, (imgBytes+side-1)/side, px)
		}},
		{"ML model", func(rt *objrt.Runtime) (objrt.Obj, error) {
			trees := make([]objrt.Obj, modelTrees)
			for t := range trees {
				nodes := make([]objrt.TreeNode, 255)
				for i := 0; i < 127; i++ {
					nodes[i] = objrt.TreeNode{Feature: int64(i % 16), Threshold: float64(i), Left: int64(2*i + 1), Right: int64(2*i + 2)}
				}
				for i := 127; i < 255; i++ {
					nodes[i] = objrt.TreeNode{Feature: -1, Value: float64(i % 10)}
				}
				obj, err := rt.NewTree(nodes)
				if err != nil {
					return objrt.Obj{}, err
				}
				trees[t] = obj
			}
			return rt.NewForest(trees)
		}},
	}
}

func init() {
	register(Experiment{
		ID:    "fig11a",
		Title: "Fig 11a: transfer latency breakdown by data type (T/N/R/E2E)",
		Expect: "rmmap beats every baseline except for int; prefetch helps " +
			"page-dense types (ndarray, dataframe, image, model) and hurts " +
			"object-heavy ones (list, dict)",
		Run: runFig11a,
	})
	register(Experiment{
		ID:    "fig11b",
		Title: "Fig 11b: list(int) payload-size sweep",
		Expect: "storage(rdma) wins below ~1 KB; rmmap wins above, by a " +
			"growing margin",
		Run: runFig11b,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Fig 15: factor analysis of the PCA→train transfer",
		Expect: "optimal-local < rmmap(prefetch) < rmmap < rmmap(rpc-paging); " +
			"paging via RPC costs tens of percent",
		Run: runFig15,
	})
	register(Experiment{
		ID:    "fig16b",
		Title: "Fig 16b: RMMAP vs Naos on a Java map (Integer→char[5])",
		Expect: "rmmap outperforms naos by ~40-65% (no traversal or " +
			"pointer rewriting)",
		Run: runFig16b,
	})
}

func runFig11a(scale float64) (Result, error) {
	t := &Table{Header: []string{"type", "approach", "T", "N", "R", "E2E", "wire", "faults", "vs messaging"}}
	for _, typ := range microTypes(scale) {
		var base xfer
		for ap := approach(0); ap < numApproaches; ap++ {
			rig, err := newMicroRig(simtime.DefaultCostModel())
			if err != nil {
				return nil, err
			}
			root, err := typ.Build(rig.ProdRT)
			if err != nil {
				return nil, err
			}
			x, err := rig.transfer(root, ap)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", typ.Name, ap, err)
			}
			if ap == apMessaging {
				base = x
			}
			t.add(typ.Name, ap.String(), x.T, x.N, x.R, x.E2E(),
				x.Wire, x.Faults, speedup(float64(base.E2E()), float64(x.E2E())))
		}
	}
	return Result{t}, nil
}

func runFig11b(scale float64) (Result, error) {
	t := &Table{Header: []string{"entries", "payload", "approach", "E2E", "vs storage(rdma)"}}
	sweeps := []int{8, 128, 2048, 32768, 262144}
	for _, n := range sweeps {
		n = scaleInt(n, scale)
		results := make(map[approach]xfer, numApproaches)
		for ap := approach(0); ap < numApproaches; ap++ {
			rig, err := newMicroRig(simtime.DefaultCostModel())
			if err != nil {
				return nil, err
			}
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(i)
			}
			root, err := rig.ProdRT.NewIntList(vals)
			if err != nil {
				return nil, err
			}
			results[ap], err = rig.transfer(root, ap)
			if err != nil {
				return nil, err
			}
		}
		drtmE2E := results[apDrTM].E2E()
		for ap := approach(0); ap < numApproaches; ap++ {
			x := results[ap]
			t.add(n, fmt.Sprintf("%dB", n*8), ap.String(), x.E2E(), speedup(float64(drtmE2E), float64(x.E2E())))
		}
	}
	return Result{t}, nil
}

func runFig15(scale float64) (Result, error) {
	// The PCA→train state: a features matrix dataframe. Every factor
	// includes the consuming function's read compute (as the paper's
	// factor analysis factors out training but keeps the state read).
	rows := scaleInt(8000, scale)
	dim := 16
	stateBytes := rows * dim * 8
	build := func(rt *objrt.Runtime) (objrt.Obj, error) {
		X, y := workloads.GenImages(rows, dim, 10, 7)
		return workloads.MatrixObj(rt, X, y)
	}
	readCompute := func(m *simtime.Meter, cm *simtime.CostModel) {
		m.Charge(simtime.CatCompute, simtime.Bytes(stateBytes, cm.ComputePerByte))
	}

	type factor struct {
		name string
		run  func() (simtime.Duration, error)
	}
	cm := simtime.DefaultCostModel()

	rmmapVariant := func(prefetch bool, paging kernel.PagingMode) (simtime.Duration, error) {
		rig, err := newMicroRig(cm)
		if err != nil {
			return 0, err
		}
		root, err := build(rig.ProdRT)
		if err != nil {
			return 0, err
		}
		prodMeter, consMeter := simtime.NewMeter(), simtime.NewMeter()
		rig.prodAS.SetMeter(prodMeter)
		rig.consAS.SetMeter(consMeter)
		start, _ := rig.ProdRT.Heap().Bounds()
		end := (rig.ProdRT.Heap().Used() + memsim.PageSize) &^ uint64(memsim.PageSize-1)
		meta, err := rig.prodK.RegisterMem(rig.prodAS, 1, 1, start, end)
		if err != nil {
			return 0, err
		}
		var plan *objrt.PrefetchPlan
		if prefetch {
			if plan, err = objrt.PlanPrefetch(root, 0, prodMeter); err != nil {
				return 0, err
			}
		}
		mp, err := rig.consK.RmapMode(rig.consAS, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End, paging)
		if err != nil {
			return 0, err
		}
		if plan != nil {
			if err := mp.Prefetch(plan.Pages); err != nil {
				return 0, err
			}
		}
		if err := checksum(root.View(rig.ConsRT)); err != nil {
			return 0, err
		}
		readCompute(consMeter, cm)
		return prodMeter.Total() + consMeter.Total(), nil
	}

	factors := []factor{
		{"optimal (local read)", func() (simtime.Duration, error) {
			rig, err := newMicroRig(cm)
			if err != nil {
				return 0, err
			}
			root, err := build(rig.ProdRT)
			if err != nil {
				return 0, err
			}
			m := simtime.NewMeter()
			rig.prodAS.SetMeter(m)
			if err := checksum(root); err != nil {
				return 0, err
			}
			readCompute(m, cm)
			return m.Total(), nil
		}},
		{"rmmap(prefetch)", func() (simtime.Duration, error) { return rmmapVariant(true, kernel.PagingRDMA) }},
		{"rmmap(no-prefetch)", func() (simtime.Duration, error) { return rmmapVariant(false, kernel.PagingRDMA) }},
		{"rmmap(rpc-paging)", func() (simtime.Duration, error) { return rmmapVariant(false, kernel.PagingRPC) }},
	}

	t := &Table{Header: []string{"factor", "transfer+read", "vs optimal"}}
	var base simtime.Duration
	for i, f := range factors {
		d, err := f.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		if i == 0 {
			base = d
		}
		t.add(f.name, d, Multiplier(float64(d)/float64(max(base, 1))))
	}
	return Result{t}, nil
}
