// Quickstart: the RMMAP primitive end to end, in five steps.
//
//  1. Build a producer container (address space + object heap) and put a
//     Python-like object graph on it.
//  2. register_mem: CoW-mark and shadow the producer's heap.
//  3. rmap: map the producer's heap into a consumer on another machine.
//  4. Read the producer's pointers directly from the consumer — remote
//     pages fault in over (simulated) RDMA; nothing is serialized.
//  5. Release the remote root: the hybrid GC unmaps the remote heap.
//
// Run: go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"rmmap/internal/kernel"
	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cm := simtime.DefaultCostModel()
	fabric := rdma.NewSimFabric(cm)

	// Two machines with RMMAP kernels on one RDMA fabric.
	prodMach, consMach := memsim.NewMachine(0), memsim.NewMachine(1)
	fabric.Attach(prodMach)
	fabric.Attach(consMach)
	prodK := kernel.New(prodMach, rdma.NewNIC(0, fabric), cm)
	consK := kernel.New(consMach, rdma.NewNIC(1, fabric), cm)
	prodK.ServeRPC(fabric)
	consK.ServeRPC(fabric)

	// Step 1: producer heap with a nested object graph. The two heaps use
	// disjoint ranges — in the full platform the VM plan guarantees this.
	prodAS := memsim.NewAddressSpace(prodMach, cm)
	prodAS.SetMeter(simtime.NewMeter())
	prodRT, err := objrt.NewRuntime(prodAS, objrt.Config{
		HeapStart: 0x1_0000_0000, HeapEnd: 0x1_1000_0000,
	})
	if err != nil {
		return err
	}
	nums, err := prodRT.NewIntList([]int64{3, 1, 4, 1, 5, 9, 2, 6})
	if err != nil {
		return err
	}
	key, err := prodRT.NewStr("digits")
	if err != nil {
		return err
	}
	state, err := prodRT.NewDict([][2]objrt.Obj{{key, nums}})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "producer built state at %#x\n", state.Addr)

	// Step 2: register_mem.
	meta, err := prodK.RegisterMem(prodAS, 1, 0xC0FFEE, 0x1_0000_0000, 0x1_0000_0000+16*memsim.PageSize)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "registered %d pages (CoW-marked, shadowed)\n", meta.Pages)

	// Step 3: rmap at the consumer.
	consAS := memsim.NewAddressSpace(consMach, cm)
	meter := simtime.NewMeter()
	consAS.SetMeter(meter)
	consRT, err := objrt.NewRuntime(consAS, objrt.Config{
		HeapStart: 0x9_0000_0000, HeapEnd: 0x9_1000_0000,
	})
	if err != nil {
		return err
	}
	mp, err := consK.Rmap(consAS, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		return err
	}
	ref := consRT.AdoptRemote(state.View(consRT), mp)

	// Step 4: dereference remote pointers. The dict lookup below chases
	// producer-heap addresses; each new page costs one fault + RDMA read.
	val, ok, err := ref.Root.DictGet("digits")
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("key missing")
	}
	n, err := val.Len()
	if err != nil {
		return err
	}
	sum := int64(0)
	for i := 0; i < n; i++ {
		e, err := val.Index(i)
		if err != nil {
			return err
		}
		v, err := e.Int()
		if err != nil {
			return err
		}
		sum += v
	}
	fmt.Fprintf(w, "consumer summed %d remote ints = %d (faults: %d, charges: %v)\n",
		n, sum, consAS.Faults(), meter)

	// Step 5: hybrid GC — releasing the root unmaps the remote heap.
	if err := ref.Release(); err != nil {
		return err
	}
	if _, err := ref.Root.Len(); err != nil {
		fmt.Fprintln(w, "after release, the remote heap is unmapped (read correctly fails)")
	}
	if err := prodK.DeregisterMem(meta.ID, meta.Key); err != nil {
		return err
	}
	fmt.Fprintln(w, "deregistered; shadow pages reclaimed. No (de)serialization anywhere.")
	return nil
}
