package main

import (
	"fmt"
	"io"

	"rmmap/internal/kernel"
	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
	"rmmap/internal/workloads"
)

func runNet(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("net", stderr)
	rows := fs.Int("rows", 5000, "trade rows in the shared dataframe")
	addr := fs.String("addr", "127.0.0.1:0", "producer listen address")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if err := netDemo(*rows, *addr, stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func netDemo(rows int, addr string, out io.Writer) error {
	cm := simtime.DefaultCostModel()
	fabric := rdma.NewTCPFabric(cm)

	// Producer machine, serving its frames and kernel RPC over TCP.
	prodMach := memsim.NewMachine(0)
	prodK := kernel.New(prodMach, rdma.NewTCPNIC(prodMach, fabric), cm)
	srv, err := fabric.Serve(prodMach, addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	prodK.ServeTCP(srv)
	fmt.Fprintf(out, "producer serving frames + RMMAP RPC on %s\n", srv.Addr())

	prodAS := memsim.NewAddressSpace(prodMach, cm)
	prodAS.SetMeter(simtime.NewMeter())
	const heapStart, heapEnd = uint64(0x1_0000_0000), uint64(0x1_4000_0000)
	prodRT, err := objrt.NewRuntime(prodAS, objrt.Config{HeapStart: heapStart, HeapEnd: heapEnd})
	if err != nil {
		return err
	}
	df, err := workloads.GenTrades(prodRT, rows, 42)
	if err != nil {
		return err
	}
	used := (prodRT.Heap().Used() + memsim.PageSize) &^ uint64(memsim.PageSize-1)
	meta, err := prodK.RegisterMem(prodAS, 7, 1234, heapStart, used)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "producer: %d-row dataframe at %#x, registered [%#x,%#x) — %d pages, CoW-marked\n",
		rows, df.Addr, meta.Start, meta.End, meta.Pages)

	// Consumer machine on a disjoint heap (the address plan's job).
	consMach := memsim.NewMachine(1)
	consNIC := rdma.NewTCPNIC(consMach, fabric)
	defer consNIC.Close()
	consK := kernel.New(consMach, consNIC, cm)
	consAS := memsim.NewAddressSpace(consMach, cm)
	meter := simtime.NewMeter()
	consAS.SetMeter(meter)
	consRT, err := objrt.NewRuntime(consAS, objrt.Config{HeapStart: 0x9_0000_0000, HeapEnd: 0x9_4000_0000})
	if err != nil {
		return err
	}

	mp, err := consK.Rmap(consAS, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		return err
	}
	defer mp.Unmap()
	fmt.Fprintf(out, "consumer: rmapped %d remote pages over TCP\n", mp.RemotePages())

	view := df.View(consRT)
	ref := consRT.AdoptRemote(view, mp)
	defer ref.Release()

	price, err := view.Column("price")
	if err != nil {
		return err
	}
	pv, err := price.Data()
	if err != nil {
		return err
	}
	sum := 0.0
	for _, p := range pv {
		sum += p
	}
	sym, err := view.Column("symbol")
	if err != nil {
		return err
	}
	first, err := sym.Index(0)
	if err != nil {
		return err
	}
	s, err := first.Str()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "consumer: avg price %.2f over %d trades, symbol[0]=%q — read through remote pointers\n",
		sum/float64(len(pv)), len(pv), s)
	fmt.Fprintf(out, "consumer: %d page faults served over the wire; modeled charges: %v\n",
		consAS.Faults(), meter)
	fmt.Fprintln(out, "no serialization or deserialization happened on this path.")
	return nil
}
