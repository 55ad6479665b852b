package kernel

import (
	"bytes"
	"errors"
	"testing"

	"rmmap/internal/memsim"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
)

// cluster wires n machines, each with a kernel serving RPC on a shared
// SimFabric — the standard two-pod test rig.
type cluster struct {
	cm       *simtime.CostModel
	fabric   *rdma.SimFabric
	machines []*memsim.Machine
	kernels  []*Kernel
}

func newClusterCM(t *testing.T, n int, cm *simtime.CostModel) *cluster {
	t.Helper()
	c := &cluster{cm: cm, fabric: rdma.NewSimFabric(cm)}
	for i := 0; i < n; i++ {
		m := memsim.NewMachine(memsim.MachineID(i))
		c.fabric.Attach(m)
		k := New(m, rdma.NewNIC(m.ID(), c.fabric), cm)
		k.ServeRPC(c.fabric)
		c.machines = append(c.machines, m)
		c.kernels = append(c.kernels, k)
	}
	return c
}

func newCluster(t *testing.T, n int) *cluster {
	return newClusterCM(t, n, simtime.DefaultCostModel())
}

func (c *cluster) newAS(i int) *memsim.AddressSpace {
	as := memsim.NewAddressSpace(c.machines[i], c.cm)
	as.SetMeter(simtime.NewMeter())
	return as
}

// producer writes a recognizable pattern into a registered heap and
// returns its meta.
func producerSetup(t *testing.T, c *cluster, idx int, start, end uint64, pattern []byte) (*memsim.AddressSpace, VMMeta) {
	t.Helper()
	as := c.newAS(idx)
	if err := c.kernels[idx].SetSegment(as, memsim.SegHeap, start, end); err != nil {
		t.Fatal(err)
	}
	for a := start; a+uint64(len(pattern)) <= end; a += memsim.PageSize {
		if err := as.Write(a, pattern); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := c.kernels[idx].RegisterMem(as, 7, 42, start, end)
	if err != nil {
		t.Fatal(err)
	}
	return as, meta
}

func TestRegisterRmapReadRoundtrip(t *testing.T) {
	c := newCluster(t, 2)
	const start, end = uint64(0x100000), uint64(0x104000)
	_, meta := producerSetup(t, c, 0, start, end, []byte("producer-state!!"))

	cons := c.newAS(1)
	mp, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		t.Fatal(err)
	}
	if mp.RemotePages() != 4 {
		t.Errorf("remote pages = %d, want 4", mp.RemotePages())
	}
	got := make([]byte, 16)
	if err := cons.Read(start+memsim.PageSize, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "producer-state!!" {
		t.Errorf("remote read = %q", got)
	}
	// Fault + map charges landed on the consumer's meter.
	m := cons.Meter()
	if m.Get(simtime.CatMap) == 0 || m.Get(simtime.CatFault) == 0 {
		t.Errorf("charges: %v", m)
	}
}

func TestRmapAuthFailure(t *testing.T) {
	c := newCluster(t, 2)
	_, meta := producerSetup(t, c, 0, 0x100000, 0x101000, []byte("x"))
	cons := c.newAS(1)
	_, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, Key(999), meta.Start, meta.End)
	if err == nil || !errors.Is(err, ErrAuth) && err.Error() == "" {
		t.Errorf("wrong-key rmap: err = %v", err)
	}
}

func TestRmapRangeOutsideRegistration(t *testing.T) {
	c := newCluster(t, 2)
	_, meta := producerSetup(t, c, 0, 0x100000, 0x101000, []byte("x"))
	cons := c.newAS(1)
	_, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, 0x100000, 0x200000)
	if err == nil {
		t.Error("expected range error")
	}
}

func TestRmapConflictDetected(t *testing.T) {
	// Table 1: rmap fails when the consumer already maps part of the range
	// — the failure the VM plan exists to rule out.
	c := newCluster(t, 2)
	_, meta := producerSetup(t, c, 0, 0x100000, 0x104000, []byte("x"))
	cons := c.newAS(1)
	if err := c.kernels[1].SetSegment(cons, memsim.SegHeap, 0x102000, 0x110000); err != nil {
		t.Fatal(err)
	}
	_, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if !errors.Is(err, memsim.ErrVMAOverlap) {
		t.Errorf("err = %v, want VMA overlap", err)
	}
}

func TestCoWIsolationAcrossRmap(t *testing.T) {
	// Producer mutates after register; consumer must still see the
	// registered snapshot (§4.1 coherency model).
	c := newCluster(t, 2)
	prod, meta := producerSetup(t, c, 0, 0x100000, 0x101000, []byte("before-register"))
	if err := prod.Write(0x100000, []byte("AFTER--REGISTER")); err != nil {
		t.Fatal(err)
	}
	cons := c.newAS(1)
	mp, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Unmap()
	got := make([]byte, 15)
	if err := cons.Read(0x100000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "before-register" {
		t.Errorf("consumer sees %q, want snapshot", got)
	}
}

func TestConsumerWritesArePrivate(t *testing.T) {
	c := newCluster(t, 2)
	prod, meta := producerSetup(t, c, 0, 0x100000, 0x101000, []byte("shared-original"))
	cons := c.newAS(1)
	mp, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Unmap()
	if err := cons.Write(0x100000, []byte("CONSUMER-WRITE!")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 15)
	if err := prod.Read(0x100000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared-original" {
		t.Errorf("producer corrupted by consumer write: %q", got)
	}
}

func TestProducerExitKeepsRegisteredMemory(t *testing.T) {
	// §4.1: "our kernel will keep the registered memory even if the caller
	// exits" via shadow copies.
	c := newCluster(t, 2)
	prod, meta := producerSetup(t, c, 0, 0x100000, 0x101000, []byte("immortal-bytes!"))
	prod.Release() // container exits

	cons := c.newAS(1)
	mp, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Unmap()
	got := make([]byte, 15)
	if err := cons.Read(0x100000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "immortal-bytes!" {
		t.Errorf("got %q after producer exit", got)
	}
}

func TestDeregisterFreesShadowFrames(t *testing.T) {
	c := newCluster(t, 2)
	prod, meta := producerSetup(t, c, 0, 0x100000, 0x102000, []byte("bye"))
	prod.Release()
	if c.machines[0].LiveFrames() != 2 {
		t.Fatalf("live = %d, want 2 shadows", c.machines[0].LiveFrames())
	}
	if err := c.kernels[0].DeregisterMem(meta.ID, meta.Key); err != nil {
		t.Fatal(err)
	}
	if c.machines[0].LiveFrames() != 0 {
		t.Errorf("live after dereg = %d", c.machines[0].LiveFrames())
	}
	if err := c.kernels[0].DeregisterMem(meta.ID, meta.Key); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("double dereg: %v", err)
	}
}

func TestRemoteDeregRPC(t *testing.T) {
	c := newCluster(t, 2)
	prod, meta := producerSetup(t, c, 0, 0x100000, 0x101000, []byte("x"))
	prod.Release()
	req := make([]byte, 16)
	putU64(req, uint64(meta.ID))
	putU64(req[8:], uint64(meta.Key))
	nic := rdma.NewNIC(1, c.fabric)
	if _, err := nic.Call(simtime.NewMeter(), 0, DeregEndpoint, req); err != nil {
		t.Fatal(err)
	}
	if c.kernels[0].Registrations() != 0 {
		t.Error("registration survived remote dereg")
	}
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func TestLeaseScan(t *testing.T) {
	c := newCluster(t, 1)
	now := simtime.Time(0)
	c.kernels[0].Clock = func() simtime.Time { return now }
	prod, _ := producerSetup(t, c, 0, 0x100000, 0x101000, []byte("x"))
	_ = prod
	if n := c.kernels[0].ScanExpired(simtime.Duration(100)); n != 0 {
		t.Errorf("premature reclaim: %d", n)
	}
	now = simtime.Time(200)
	if n := c.kernels[0].ScanExpired(simtime.Duration(100)); n != 1 {
		t.Errorf("reclaimed %d, want 1", n)
	}
	if c.kernels[0].Registrations() != 0 {
		t.Error("lease scan left registration")
	}
}

func TestPrefetchAvoidsFaults(t *testing.T) {
	c := newCluster(t, 2)
	const start, end = uint64(0x100000), uint64(0x100000 + 32*memsim.PageSize)
	_, meta := producerSetup(t, c, 0, start, end, bytes.Repeat([]byte("p"), 64))

	cons := c.newAS(1)
	mp, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.PrefetchRange(start, end); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for a := start; a < end; a += memsim.PageSize {
		if err := cons.Read(a, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 'p' {
			t.Fatalf("bad prefetched data at %#x", a)
		}
	}
	if cons.Faults() != 0 {
		t.Errorf("faults after prefetch = %d, want 0", cons.Faults())
	}
}

func TestPrefetchCheaperThanDemandFaults(t *testing.T) {
	run := func(prefetch bool) simtime.Duration {
		c := newCluster(t, 2)
		const start, end = uint64(0x100000), uint64(0x100000 + 256*memsim.PageSize)
		_, meta := producerSetup(t, c, 0, start, end, []byte("z"))
		cons := c.newAS(1)
		mp, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, start, end)
		if err != nil {
			t.Fatal(err)
		}
		if prefetch {
			if err := mp.PrefetchRange(start, end); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, 1)
		for a := start; a < end; a += memsim.PageSize {
			if err := cons.Read(a, buf); err != nil {
				t.Fatal(err)
			}
		}
		return cons.Meter().Get(simtime.CatFault)
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Errorf("prefetch (%v) not cheaper than demand faults (%v)", with, without)
	}
}

func TestZeroFillForUntouchedProducerPages(t *testing.T) {
	c := newCluster(t, 2)
	// Producer registers 4 pages but only touches the first.
	as := c.newAS(0)
	const start, end = uint64(0x100000), uint64(0x104000)
	if err := c.kernels[0].SetSegment(as, memsim.SegHeap, start, end); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(start, []byte("touched")); err != nil {
		t.Fatal(err)
	}
	meta, err := c.kernels[0].RegisterMem(as, 1, 1, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Pages != 1 {
		t.Fatalf("registered pages = %d, want 1", meta.Pages)
	}
	cons := c.newAS(1)
	mp, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, start, end)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Unmap()
	buf := make([]byte, 8)
	if err := cons.Read(start+2*memsim.PageSize, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("untouched producer page not zero-filled")
		}
	}
}

func TestUnmapReleasesConsumerFrames(t *testing.T) {
	c := newCluster(t, 2)
	_, meta := producerSetup(t, c, 0, 0x100000, 0x104000, []byte("x"))
	cons := c.newAS(1)
	mp, err := c.kernels[1].Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.PrefetchRange(meta.Start, meta.End); err != nil {
		t.Fatal(err)
	}
	if c.machines[1].LiveFrames() == 0 {
		t.Fatal("no consumer frames after prefetch")
	}
	if err := mp.Unmap(); err != nil {
		t.Fatal(err)
	}
	if c.machines[1].LiveFrames() != 0 {
		t.Errorf("consumer frames leaked: %d", c.machines[1].LiveFrames())
	}
	if err := mp.Unmap(); err != nil {
		t.Errorf("double unmap: %v", err)
	}
}

func TestRPCPagingSlower(t *testing.T) {
	// Fig 15: paging over RPC must be substantially slower than RDMA.
	run := func(mode PagingMode) simtime.Duration {
		c := newCluster(t, 2)
		const start, end = uint64(0x100000), uint64(0x100000 + 64*memsim.PageSize)
		_, meta := producerSetup(t, c, 0, start, end, []byte("q"))
		cons := c.newAS(1)
		if _, err := c.kernels[1].RmapMeta(cons, meta, 0, mode); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		for a := start; a < end; a += memsim.PageSize {
			if err := cons.Read(a, buf); err != nil {
				t.Fatal(err)
			}
		}
		return cons.Meter().Get(simtime.CatFault)
	}
	rdmaTime, rpcTime := run(PagingRDMA), run(PagingRPC)
	if rpcTime <= rdmaTime {
		t.Errorf("RPC paging (%v) should be slower than RDMA (%v)", rpcTime, rdmaTime)
	}
}

func TestRmapOverTCPFabric(t *testing.T) {
	// The whole register→rmap→fault protocol across a real socket.
	cm := simtime.DefaultCostModel()
	tf := rdma.NewTCPFabric(cm)

	prodMach := memsim.NewMachine(0)
	prodNIC := rdma.NewTCPNIC(prodMach, tf)
	prodK := New(prodMach, prodNIC, cm)
	srv, err := tf.Serve(prodMach, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	prodK.ServeTCP(srv)

	consMach := memsim.NewMachine(1)
	consNIC := rdma.NewTCPNIC(consMach, tf)
	defer consNIC.Close()
	consK := New(consMach, consNIC, cm)

	prodAS := memsim.NewAddressSpace(prodMach, cm)
	prodAS.SetMeter(simtime.NewMeter())
	const start, end = uint64(0x200000), uint64(0x202000)
	if err := prodK.SetSegment(prodAS, memsim.SegHeap, start, end); err != nil {
		t.Fatal(err)
	}
	if err := prodAS.Write(start+100, []byte("tcp-rmmap works")); err != nil {
		t.Fatal(err)
	}
	meta, err := prodK.RegisterMem(prodAS, 3, 9, start, end)
	if err != nil {
		t.Fatal(err)
	}

	consAS := memsim.NewAddressSpace(consMach, cm)
	consAS.SetMeter(simtime.NewMeter())
	mp, err := consK.Rmap(consAS, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Unmap()
	got := make([]byte, 15)
	if err := consAS.Read(start+100, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "tcp-rmmap works" {
		t.Errorf("got %q", got)
	}
}
