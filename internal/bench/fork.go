package bench

import (
	"errors"
	"fmt"

	"rmmap/internal/kernel"
	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/rdma"
	"rmmap/internal/rfork"
	"rmmap/internal/simtime"
)

func init() {
	register(Experiment{
		ID:    "abl-fork",
		Title: "Comparison: MITOSIS-style remote fork vs rmap (§7)",
		Expect: "single-producer transfer costs are comparable; merging two " +
			"producers is impossible with fork (same-image address collision) " +
			"and trivial with planned rmap",
		Run: runAblFork,
	})
}

func runAblFork(scale float64) (Result, error) {
	cm := simtime.DefaultCostModel()
	n := scaleInt(50000, scale)

	// Shared cluster: two producers (same image layout) and one consumer.
	fabric := rdma.NewSimFabric(cm)
	var kernels []*kernel.Kernel
	for i := 0; i < 3; i++ {
		m := memsim.NewMachine(memsim.MachineID(i))
		fabric.Attach(m)
		k := kernel.New(m, rdma.NewNIC(m.ID(), fabric), cm)
		k.ServeRPC(fabric)
		kernels = append(kernels, k)
	}
	const imageHeap = uint64(0x4000_0000) // every same-image container uses this base

	producer := func(machine int, id kernel.FuncID) (*memsim.AddressSpace, objrt.Obj, error) {
		as := memsim.NewAddressSpace(kernels[machine].Machine(), cm)
		as.SetMeter(simtime.NewMeter())
		rt, err := objrt.NewRuntime(as, objrt.Config{HeapStart: imageHeap, HeapEnd: imageHeap + 0x1000_0000})
		if err != nil {
			return nil, objrt.Obj{}, err
		}
		obj, err := rt.NewIntList(make([]int64, n))
		return as, obj, err
	}

	t := &Table{Header: []string{"scenario", "mechanism", "consumer-side cost", "outcome"}}

	// Single producer: fork vs rmap, consumer reads the whole list.
	asA, objA, err := producer(0, 1)
	if err != nil {
		return nil, err
	}
	metaFork, err := rfork.Prepare(kernels[0], asA, 1, 3)
	if err != nil {
		return nil, err
	}
	child, err := rfork.Fork(kernels[2], cm, metaFork)
	if err != nil {
		return nil, err
	}
	childRT, err := objrt.NewRuntime(child.AS, objrt.Config{HeapStart: 0x9000_0000, HeapEnd: 0x9100_0000})
	if err != nil {
		return nil, err
	}
	if err := checksum(objA.View(childRT)); err != nil {
		return nil, err
	}
	t.add("1 producer", "remote fork", child.AS.Meter().Total(), "ok")
	if err := child.Release(); err != nil {
		return nil, err
	}

	asA2, objA2, err := producer(0, 11)
	if err != nil {
		return nil, err
	}
	metaMap, err := kernels[0].RegisterMem(asA2, 11, 12, imageHeap, imageHeap+0x1000_0000)
	if err != nil {
		return nil, err
	}
	consAS := memsim.NewAddressSpace(kernels[2].Machine(), cm)
	consAS.SetMeter(simtime.NewMeter())
	consRT, err := objrt.NewRuntime(consAS, objrt.Config{HeapStart: 0x9000_0000, HeapEnd: 0x9100_0000})
	if err != nil {
		return nil, err
	}
	mp, err := kernels[2].Rmap(consAS, metaMap.Machine, metaMap.ID, metaMap.Key, metaMap.Start, metaMap.End)
	if err != nil {
		return nil, err
	}
	if err := checksum(objA2.View(consRT)); err != nil {
		return nil, err
	}
	t.add("1 producer", "rmap", consAS.Meter().Total(), "ok")
	if err := mp.Unmap(); err != nil {
		return nil, err
	}

	// Two producers, one consumer.
	asB, _, err := producer(1, 2)
	if err != nil {
		return nil, err
	}
	metaForkB, err := rfork.Prepare(kernels[1], asB, 2, 6)
	if err != nil {
		return nil, err
	}
	merge := memsim.NewAddressSpace(kernels[2].Machine(), cm)
	merge.SetMeter(simtime.NewMeter())
	if _, err := rfork.ForkInto(kernels[2], merge, metaFork); err != nil {
		return nil, err
	}
	_, err = rfork.ForkInto(kernels[2], merge, metaForkB)
	if errors.Is(err, memsim.ErrVMAOverlap) {
		t.add("2 producers", "remote fork", "-", "FAILS: same-image address collision")
	} else if err != nil {
		return nil, err
	} else {
		return nil, fmt.Errorf("abl-fork: expected fork collision")
	}

	// rmap with a plan: give the second producer a disjoint planned heap.
	asC := memsim.NewAddressSpace(kernels[1].Machine(), cm)
	asC.SetMeter(simtime.NewMeter())
	rtC, err := objrt.NewRuntime(asC, objrt.Config{HeapStart: 0x6000_0000, HeapEnd: 0x7000_0000})
	if err != nil {
		return nil, err
	}
	objC, err := rtC.NewIntList(make([]int64, n))
	if err != nil {
		return nil, err
	}
	metaC, err := kernels[1].RegisterMem(asC, 21, 22, 0x6000_0000, 0x7000_0000)
	if err != nil {
		return nil, err
	}
	merge2 := memsim.NewAddressSpace(kernels[2].Machine(), cm)
	merge2.SetMeter(simtime.NewMeter())
	merge2RT, err := objrt.NewRuntime(merge2, objrt.Config{HeapStart: 0x9000_0000, HeapEnd: 0x9100_0000})
	if err != nil {
		return nil, err
	}
	mpA, err := kernels[2].Rmap(merge2, metaMap.Machine, metaMap.ID, metaMap.Key, metaMap.Start, metaMap.End)
	if err != nil {
		return nil, err
	}
	defer mpA.Unmap()
	mpC, err := kernels[2].Rmap(merge2, metaC.Machine, metaC.ID, metaC.Key, metaC.Start, metaC.End)
	if err != nil {
		return nil, err
	}
	defer mpC.Unmap()
	if err := checksum(objA2.View(merge2RT)); err != nil {
		return nil, err
	}
	if err := checksum(objC.View(merge2RT)); err != nil {
		return nil, err
	}
	t.add("2 producers", "rmap (planned)", merge2.Meter().Total(), "ok: both states merged")
	return Result{t}, nil
}
