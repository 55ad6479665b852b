package kernel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"rmmap/internal/memsim"
	"rmmap/internal/sim"
	"rmmap/internal/simtime"
)

// withSim puts every kernel of the rig on one simulator clock and returns
// it — replication and heartbeats run in virtual time.
func (c *cluster) withSim() *sim.Simulator {
	s := sim.New()
	for _, k := range c.kernels {
		k.Clock = s.Now
	}
	return s
}

func TestHeartbeatDetectsCrashProactively(t *testing.T) {
	c := newCluster(t, 2)
	k := c.kernels[1]
	k.EnableLeases(100 * simtime.Microsecond)
	deaths := 0
	k.OnPeerDead = func(peer memsim.MachineID) {
		if peer != 0 {
			t.Errorf("OnPeerDead(%d), want machine 0", peer)
		}
		deaths++
	}

	if err := k.Heartbeat(0); err != nil {
		t.Fatalf("heartbeat of a live peer: %v", err)
	}
	if k.PeerDead(0) || k.LeaseSuspect(0) {
		t.Fatal("live peer marked dead/suspect")
	}
	if k.HeartbeatMeter().Get(simtime.CatHeartbeat) == 0 {
		t.Error("heartbeat probe charged nothing to CatHeartbeat")
	}

	c.machines[0].Crash()
	if err := k.Heartbeat(0); !errors.Is(err, memsim.ErrMachineCrashed) {
		t.Fatalf("heartbeat of crashed peer: %v", err)
	}
	if !k.PeerDead(0) {
		t.Fatal("crash evidence did not mark the peer dead")
	}
	if k.LeaseSuspect(0) {
		t.Fatal("dead peer reported suspect (dead is terminal, not suspect)")
	}
	// Death is sticky and fires the callback exactly once.
	_ = k.Heartbeat(0)
	if deaths != 1 {
		t.Fatalf("OnPeerDead fired %d times, want 1", deaths)
	}
}

func TestLeaseExpiryIsSuspectNotDead(t *testing.T) {
	c := newCluster(t, 2)
	k := c.kernels[1]
	var now simtime.Time
	k.Clock = func() simtime.Time { return now }
	k.EnableLeases(100 * simtime.Microsecond)
	expiries := 0
	k.OnLeaseExpired = func(peer memsim.MachineID) { expiries++ }

	if err := k.Heartbeat(0); err != nil {
		t.Fatal(err)
	}
	// Within the TTL a timeout does not age the lease out.
	now = simtime.Time(50 * simtime.Microsecond)
	k.ProbeFailed(0, errors.New("probe timeout"))
	if k.LeaseSuspect(0) {
		t.Fatal("lease suspect before TTL elapsed")
	}
	// Past the TTL the same failure expires it — once.
	now = simtime.Time(200 * simtime.Microsecond)
	k.ProbeFailed(0, errors.New("probe timeout"))
	k.ProbeFailed(0, errors.New("probe timeout"))
	if !k.LeaseSuspect(0) || k.PeerDead(0) {
		t.Fatalf("want suspect-not-dead, got suspect=%v dead=%v", k.LeaseSuspect(0), k.PeerDead(0))
	}
	if expiries != 1 || k.LeaseExpiries() != 1 {
		t.Fatalf("expiry fired %d times (counter %d), want 1", expiries, k.LeaseExpiries())
	}
	// A successful probe heals suspicion and re-arms the expiry callback.
	if err := k.Heartbeat(0); err != nil {
		t.Fatal(err)
	}
	if k.LeaseSuspect(0) {
		t.Fatal("renewal did not clear suspicion")
	}
	now = simtime.Time(400 * simtime.Microsecond)
	k.ProbeFailed(0, errors.New("probe timeout"))
	if expiries != 2 {
		t.Fatalf("second aging-out fired %d expiries, want 2", expiries)
	}
}

// TestLeaseFencingStaleGeneration: a consumer whose producer lease is
// suspect must revalidate before reading; when the registration was
// regenerated underneath it, the read fails with ErrStaleGeneration and
// moves no page bytes — never a frame from the old generation.
func TestLeaseFencingStaleGeneration(t *testing.T) {
	c := newCluster(t, 2)
	k := c.kernels[1]
	var now simtime.Time
	k.Clock = func() simtime.Time { return now }
	k.EnableLeases(100 * simtime.Microsecond)

	const start, end = uint64(0x100000), uint64(0x104000)
	prodAS, meta := producerSetup(t, c, 0, start, end, []byte("generation-one!!"))

	cons := c.newAS(1)
	mp, err := k.Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := cons.Read(start, got); err != nil || string(got) != "generation-one!!" {
		t.Fatalf("fresh read: %q, %v", got, err)
	}

	// Lease ages out; the producer deregisters and re-registers the same
	// (id, key) — a new generation over possibly-recycled frames.
	now = simtime.Time(200 * simtime.Microsecond)
	k.ProbeFailed(0, errors.New("probe timeout"))
	if !k.LeaseSuspect(0) {
		t.Fatal("lease not suspect")
	}
	if err := c.kernels[0].DeregisterMem(meta.ID, meta.Key); err != nil {
		t.Fatal(err)
	}
	prodAS.Release()
	producerSetup(t, c, 0, start, end, []byte("generation-two!!"))

	before := c.fabricPages(t)
	err = cons.Read(start+memsim.PageSize, got)
	if !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("read under stale generation: %v, want ErrStaleGeneration", err)
	}
	if moved := c.fabricPages(t) - before; moved != 0 {
		t.Fatalf("fenced read moved %d pages over the fabric", moved)
	}
	_ = mp
}

// TestLeaseRevalidationRenews: a suspect lease whose registration is
// unchanged revalidates on the read path and the read proceeds.
func TestLeaseRevalidationRenews(t *testing.T) {
	c := newCluster(t, 2)
	k := c.kernels[1]
	var now simtime.Time
	k.Clock = func() simtime.Time { return now }
	k.EnableLeases(100 * simtime.Microsecond)

	const start, end = uint64(0x100000), uint64(0x104000)
	_, meta := producerSetup(t, c, 0, start, end, []byte("still-here-data!"))
	cons := c.newAS(1)
	if _, err := k.Rmap(cons, meta.Machine, meta.ID, meta.Key, meta.Start, meta.End); err != nil {
		t.Fatal(err)
	}

	now = simtime.Time(200 * simtime.Microsecond)
	k.ProbeFailed(0, errors.New("probe timeout"))
	if !k.LeaseSuspect(0) {
		t.Fatal("lease not suspect")
	}
	got := make([]byte, 16)
	if err := cons.Read(start, got); err != nil {
		t.Fatalf("revalidated read failed: %v", err)
	}
	if string(got) != "still-here-data!" {
		t.Fatalf("revalidated read = %q", got)
	}
	if k.LeaseSuspect(0) {
		t.Fatal("successful revalidation did not renew the lease")
	}
}

// TestReplicationAndFailover: replication drains in virtual time, the
// watermark completes, and after the producer crashes a consumer rmap
// fails over to the backup's replica and reads identical bytes.
func TestReplicationAndFailover(t *testing.T) {
	c := newCluster(t, 3)
	s := c.withSim()
	c.kernels[0].EnableReplication([]memsim.MachineID{1}, s.After)

	const start, end = uint64(0x100000), uint64(0x104000) // 4 pages
	_, meta := producerSetup(t, c, 0, start, end, []byte("replicated-data!"))
	if len(meta.Backups) != 1 || meta.Backups[0] != 1 {
		t.Fatalf("meta.Backups = %v, want [1]", meta.Backups)
	}
	s.Run()

	done, total, ok := c.kernels[1].ReplicaWatermark(0, meta.ID, meta.Key)
	if !ok || done != total || total != 4 {
		t.Fatalf("watermark = %d/%d (ok=%v), want 4/4", done, total, ok)
	}
	if got := c.kernels[0].ReplicatedBytes(); got != 4*memsim.PageSize {
		t.Fatalf("replicated bytes = %d, want %d", got, 4*memsim.PageSize)
	}
	if c.kernels[0].ReplicationMeter().Get(simtime.CatReplicate) == 0 {
		t.Error("replication charged nothing to CatReplicate")
	}

	c.machines[0].Crash()
	cons := c.newAS(2)
	mp, err := c.kernels[2].RmapMeta(cons, meta, 0, PagingRDMA)
	if err != nil {
		t.Fatalf("rmap with dead producer + replica: %v", err)
	}
	if !mp.FailedOver() || mp.ReadTarget() != 1 {
		t.Fatalf("failedOver=%v readTarget=%d, want failover to machine 1", mp.FailedOver(), mp.ReadTarget())
	}
	if c.kernels[2].Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", c.kernels[2].Failovers())
	}
	for a := start; a < end; a += memsim.PageSize {
		got := make([]byte, 16)
		if err := cons.Read(a, got); err != nil {
			t.Fatalf("replica read at %#x: %v", a, err)
		}
		if !bytes.Equal(got, []byte("replicated-data!")) {
			t.Fatalf("replica bytes at %#x = %q", a, got)
		}
	}
}

// TestFailoverRefusedOnIncompleteReplica: a crash mid-replication leaves
// the watermark short; failover must refuse the partial replica and the
// rmap surfaces the crash (the platform then re-executes).
func TestFailoverRefusedOnIncompleteReplica(t *testing.T) {
	c := newCluster(t, 3)
	// Manual scheduler: collect replication events and run them by hand so
	// the crash lands between batches.
	var q []func()
	c.kernels[0].EnableReplication([]memsim.MachineID{1}, func(d simtime.Duration, fn func()) {
		q = append(q, fn)
	})

	const pages = 96 // > one 64-page batch
	const start = uint64(0x100000)
	const end = start + pages*memsim.PageSize
	_, meta := producerSetup(t, c, 0, start, end, []byte("partial-replica!"))

	// Run the prepare and exactly one page batch, then crash the producer.
	for i := 0; i < 2 && i < len(q); i++ {
		q[i]()
	}
	c.machines[0].Crash()
	for i := 2; i < len(q); i++ {
		q[i]() // surviving events must observe the crash and abort
	}

	done, total, ok := c.kernels[1].ReplicaWatermark(0, meta.ID, meta.Key)
	if !ok || done >= total {
		t.Fatalf("watermark = %d/%d (ok=%v), want a partial replica", done, total, ok)
	}

	cons := c.newAS(2)
	_, err := c.kernels[2].RmapMeta(cons, meta, 0, PagingRDMA)
	if err == nil {
		t.Fatal("rmap succeeded against an incomplete replica")
	}
	if !errors.Is(err, ErrReplicaIncomplete) {
		t.Fatalf("err = %v, want ErrReplicaIncomplete in the chain", err)
	}
	if !errors.Is(err, memsim.ErrMachineCrashed) {
		t.Fatalf("err = %v, want ErrMachineCrashed so the recovery ladder re-executes", err)
	}
	if c.kernels[2].Failovers() != 0 {
		t.Fatalf("failovers = %d, want 0 (refused)", c.kernels[2].Failovers())
	}
}

// TestDeregisterDropsReplicas: a clean deregister also retires the
// replicas so backups do not leak frames.
func TestDeregisterDropsReplicas(t *testing.T) {
	c := newCluster(t, 2)
	s := c.withSim()
	c.kernels[0].EnableReplication([]memsim.MachineID{1}, s.After)

	const start, end = uint64(0x100000), uint64(0x102000)
	_, meta := producerSetup(t, c, 0, start, end, []byte("short-lived-data"))
	s.Run()
	if _, _, ok := c.kernels[1].ReplicaWatermark(0, meta.ID, meta.Key); !ok {
		t.Fatal("no replica after replication drained")
	}
	live := c.machines[1].LiveFrames()

	if err := c.kernels[0].DeregisterMem(meta.ID, meta.Key); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if _, _, ok := c.kernels[1].ReplicaWatermark(0, meta.ID, meta.Key); ok {
		t.Fatal("replica survived deregister_mem")
	}
	if got := c.machines[1].LiveFrames(); got >= live {
		t.Fatalf("backup frames not freed: %d live, had %d", got, live)
	}
}

// TestReplPrepareBoundsFrames: a replica prepare request allocates one
// backup frame per record, so a request whose records its own range cannot
// account for — more records than pages, a record outside [start, end), or
// a range that is not a page-aligned interval — is rejected before any
// frame is allocated.
func TestReplPrepareBoundsFrames(t *testing.T) {
	c := newCluster(t, 1)
	k, m := c.kernels[0], c.machines[0]
	const start, end = uint64(0x100000), uint64(0x102000) // two pages
	prep := func(start, end uint64, vpns ...memsim.VPN) []byte {
		req := appendReplicaKey(nil, replicaKey{origin: 1, id: 7, key: 42})
		req = binary.LittleEndian.AppendUint64(req, 1) // gen
		req = binary.LittleEndian.AppendUint64(req, start)
		req = binary.LittleEndian.AppendUint64(req, end)
		req = binary.LittleEndian.AppendUint32(req, uint32(len(vpns)))
		for _, v := range vpns {
			req = binary.LittleEndian.AppendUint64(req, uint64(v))
			req = binary.LittleEndian.AppendUint64(req, 0) // producer PFN
		}
		return req
	}
	first := memsim.PageOf(start)
	for _, tc := range []struct {
		name string
		req  []byte
	}{
		{"more records than pages", prep(start, end, first, first+1, first+2)},
		{"record below start", prep(start, end, first-1, first)},
		{"record at end", prep(start, end, first, first+2)},
		{"inverted range", prep(end, start, first)},
		{"unaligned end", prep(start, end+1, first, first+1, first+2)},
		{"4096 records for one page", prep(start, start+memsim.PageSize, func() []memsim.VPN {
			vpns := make([]memsim.VPN, 4096)
			for i := range vpns {
				vpns[i] = first + memsim.VPN(i)
			}
			return vpns
		}()...)},
	} {
		live := m.LiveFrames()
		if _, err := k.handleReplPrepare(simtime.NewMeter(), tc.req); !errors.Is(err, ErrRangeOutside) {
			t.Errorf("%s: err = %v, want ErrRangeOutside", tc.name, err)
		}
		if got := m.LiveFrames(); got != live {
			t.Errorf("%s: live frames %d -> %d, want unchanged", tc.name, live, got)
		}
	}
	// The request a producer sends for the same range is accepted and
	// allocates exactly one frame per record.
	live := m.LiveFrames()
	if _, err := k.handleReplPrepare(simtime.NewMeter(), prep(start, end, first, first+1)); err != nil {
		t.Fatal(err)
	}
	if got := m.LiveFrames(); got != live+2 {
		t.Fatalf("live frames %d -> %d, want +2", live, got)
	}
}
