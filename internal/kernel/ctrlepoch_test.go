package kernel

import (
	"errors"
	"testing"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

func TestEpochFencingBlocksStaleReclaim(t *testing.T) {
	c := newCluster(t, 1)
	_, meta := producerSetup(t, c, 0, 0x100000, 0x102000, []byte("fence-me"))
	k := c.kernels[0]

	k.AdoptEpoch(2)
	if k.CtrlEpoch() != 2 {
		t.Fatalf("CtrlEpoch = %d, want 2", k.CtrlEpoch())
	}
	// Epochs only move forward.
	k.AdoptEpoch(1)
	if k.CtrlEpoch() != 2 {
		t.Fatalf("AdoptEpoch lowered the epoch to %d", k.CtrlEpoch())
	}

	// A zombie pre-crash coordinator (epoch 1) cannot reclaim.
	err := k.DeregisterMemFenced(1, meta.ID, meta.Key)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale reclaim: err = %v, want ErrStaleEpoch", err)
	}
	if k.Registrations() != 1 {
		t.Fatalf("stale reclaim destroyed a live registration")
	}

	// The current epoch reclaims normally.
	if err := k.DeregisterMemFenced(2, meta.ID, meta.Key); err != nil {
		t.Fatalf("current-epoch reclaim: %v", err)
	}
	if k.Registrations() != 0 {
		t.Fatalf("registrations = %d, want 0", k.Registrations())
	}
}

func TestEpochFencingAdoptsNewerFromCommand(t *testing.T) {
	c := newCluster(t, 1)
	_, meta := producerSetup(t, c, 0, 0x100000, 0x101000, []byte("adopt"))
	k := c.kernels[0]
	k.AdoptEpoch(1)

	// A command from epoch 3 is an implicit announcement: it executes and
	// the kernel adopts 3, so epoch-2 commands are fenced afterwards.
	if err := k.DeregisterMemFenced(3, meta.ID, meta.Key); err != nil {
		t.Fatalf("newer-epoch reclaim: %v", err)
	}
	if k.CtrlEpoch() != 3 {
		t.Fatalf("CtrlEpoch = %d after epoch-3 command, want 3", k.CtrlEpoch())
	}
	if err := k.DeregisterMemFenced(2, 99, 99); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("epoch-2 command after adopting 3: %v, want ErrStaleEpoch", err)
	}
}

// Each kernel holds its own adopted epoch: an announcement moves the
// kernel it reaches and no other, and each kernel's epoch is monotone.
func TestShardEpochsIndependent(t *testing.T) {
	c := newCluster(t, 3)
	c.kernels[1].AdoptEpoch(5)
	for i, want := range []uint64{0, 5, 0} {
		if got := c.kernels[i].CtrlEpoch(); got != want {
			t.Fatalf("kernel %d epoch = %d after kernel 1 adopted 5, want %d", i, got, want)
		}
	}
	c.kernels[1].AdoptEpoch(3)
	c.kernels[0].AdoptEpoch(1)
	for i, want := range []uint64{1, 5, 0} {
		if got := c.kernels[i].CtrlEpoch(); got != want {
			t.Fatalf("kernel %d epoch = %d, want %d", i, got, want)
		}
	}
}

// Fencing is local to each kernel: while a recovered coordinator's epoch
// broadcast has reached kernel 1 but not kernel 0, kernel 1 fences the
// zombie's epoch-1 reclaim and kernel 0 still executes one. A newer-epoch
// command is an implicit announcement on the kernel it reaches only.
func TestShardEpochFencingIsShardLocal(t *testing.T) {
	c := newCluster(t, 2)
	_, meta0 := producerSetup(t, c, 0, 0x100000, 0x102000, []byte("behind"))
	_, meta1 := producerSetup(t, c, 1, 0x100000, 0x102000, []byte("ahead"))
	k0, k1 := c.kernels[0], c.kernels[1]
	k0.AdoptEpoch(1)
	k1.AdoptEpoch(2)

	if err := k1.DeregisterMemFenced(1, meta1.ID, meta1.Key); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale reclaim on the announced kernel: %v, want ErrStaleEpoch", err)
	}
	if k1.Registrations() != 1 {
		t.Fatal("stale reclaim destroyed a live registration")
	}
	if err := k0.DeregisterMemFenced(1, meta0.ID, meta0.Key); err != nil {
		t.Fatalf("epoch-1 reclaim on the kernel still at epoch 1: %v", err)
	}
	if k0.Registrations() != 0 {
		t.Fatalf("kernel 0 registrations = %d, want 0", k0.Registrations())
	}

	_, meta0 = producerSetup(t, c, 0, 0x200000, 0x201000, []byte("again"))
	if err := k0.DeregisterMemFenced(7, meta0.ID, meta0.Key); err != nil {
		t.Fatalf("newer-epoch reclaim: %v", err)
	}
	if got := k0.CtrlEpoch(); got != 7 {
		t.Fatalf("kernel 0 epoch = %d after an epoch-7 command, want 7", got)
	}
	if got := k1.CtrlEpoch(); got != 2 {
		t.Fatalf("kernel 0's epoch-7 command moved kernel 1's epoch to %d", got)
	}
}

func TestListRegistrationsSorted(t *testing.T) {
	c := newCluster(t, 1)
	k := c.kernels[0]
	// Register in a scrambled order; the listing must come back sorted.
	specs := []struct {
		id  FuncID
		key Key
	}{{7, 1}, {2, 9}, {2, 3}, {11, 0}}
	base := uint64(0x100000)
	for i, sp := range specs {
		as := c.newAS(0)
		start := base + uint64(i)*0x10000
		if err := k.SetSegment(as, memsim.SegHeap, start, start+0x1000); err != nil {
			t.Fatal(err)
		}
		if _, err := k.RegisterMem(as, sp.id, sp.key, start, start+0x1000); err != nil {
			t.Fatal(err)
		}
	}
	got := k.ListRegistrations()
	want := []RegListing{{2, 3}, {2, 9}, {7, 1}, {11, 0}}
	if len(got) != len(want) {
		t.Fatalf("listed %d registrations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("listing[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestExtendACL(t *testing.T) {
	c := newCluster(t, 2)
	_, meta := producerSetup(t, c, 0, 0x100000, 0x102000, []byte("acl"))
	k := c.kernels[0]

	// Restrict to consumer 10, then extend to 20: both map, others fail.
	if err := k.SetACL(meta.ID, meta.Key, []FuncID{10}); err != nil {
		t.Fatal(err)
	}
	if err := k.ExtendACL(meta.ID, meta.Key, []FuncID{20}); err != nil {
		t.Fatal(err)
	}
	for _, consumer := range []FuncID{10, 20} {
		as := c.newAS(1)
		mp, err := c.kernels[1].RmapMeta(as, meta, consumer, PagingRDMA)
		if err != nil {
			t.Fatalf("allowed consumer %d denied: %v", consumer, err)
		}
		mp.Unmap()
	}
	as := c.newAS(1)
	if _, err := c.kernels[1].RmapMeta(as, meta, 30, PagingRDMA); !errors.Is(err, ErrDenied) {
		t.Fatalf("unlisted consumer: %v, want ErrDenied", err)
	}

	// Extending a nil (allow-any) ACL stays allow-any.
	if err := k.SetACL(meta.ID, meta.Key, nil); err != nil {
		t.Fatal(err)
	}
	if err := k.ExtendACL(meta.ID, meta.Key, []FuncID{40}); err != nil {
		t.Fatal(err)
	}
	as = c.newAS(1)
	if _, err := c.kernels[1].RmapMeta(as, meta, 31337, PagingRDMA); err != nil {
		t.Fatalf("allow-any ACL narrowed by ExtendACL: %v", err)
	}

	if err := k.ExtendACL(99, 99, []FuncID{1}); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("ExtendACL of unknown registration: %v, want ErrNotRegistered", err)
	}
}

func TestGossipSpreadsDeathCertificates(t *testing.T) {
	// Machines 1 and 2 never probe 0 directly; 3 does. After 3 probes the
	// crashed 0 and then heartbeats 1, and 1 heartbeats 2, everyone knows.
	c := newCluster(t, 4)
	for _, k := range c.kernels {
		k.EnableLeases(100 * simtime.Microsecond)
	}
	var deadAt1 []memsim.MachineID
	c.kernels[1].OnPeerDead = func(peer memsim.MachineID) { deadAt1 = append(deadAt1, peer) }

	c.machines[0].Crash()
	if err := c.kernels[3].Heartbeat(0); err == nil {
		t.Fatalf("probe of crashed machine succeeded")
	}
	if !c.kernels[3].PeerDead(0) {
		t.Fatalf("direct prober did not mark 0 dead")
	}

	// 3 → 1: the request piggybacks 3's certificate for 0.
	if err := c.kernels[3].Heartbeat(1); err != nil {
		t.Fatalf("heartbeat 3→1: %v", err)
	}
	if !c.kernels[1].PeerDead(0) {
		t.Fatalf("gossip on request did not spread the certificate to 1")
	}
	if len(deadAt1) != 1 || deadAt1[0] != 0 {
		t.Fatalf("OnPeerDead at 1 fired %v, want [0]", deadAt1)
	}

	// 2 → 1: the response piggybacks 1's certificates back to the prober.
	if err := c.kernels[2].Heartbeat(1); err != nil {
		t.Fatalf("heartbeat 2→1: %v", err)
	}
	if !c.kernels[2].PeerDead(0) {
		t.Fatalf("gossip on response did not spread the certificate to 2")
	}

	// Certificates are death-only: 1 renewed its lease on nothing it did
	// not probe first-hand, so no peer is spuriously fresh or suspect.
	if c.kernels[1].LeaseSuspect(2) || c.kernels[1].PeerDead(2) {
		t.Fatalf("gossip perturbed first-hand lease state")
	}
}

func TestGossipIgnoresSelfCertificates(t *testing.T) {
	c := newCluster(t, 2)
	for _, k := range c.kernels {
		k.EnableLeases(100 * simtime.Microsecond)
	}
	// A (buggy or partitioned) peer gossips a certificate naming the
	// receiver itself; the receiver must not mark itself dead.
	c.kernels[1].MarkPeerDead(1)
	if c.kernels[1].PeerDead(1) {
		t.Fatalf("kernel marked itself dead from a self certificate")
	}
	if got := c.kernels[1].DeadPeers(); len(got) != 0 {
		t.Fatalf("DeadPeers = %v, want empty", got)
	}
}
