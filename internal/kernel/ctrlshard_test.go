package kernel

import (
	"errors"
	"testing"
)

// Per-shard coordinator epochs (DESIGN.md §15): a shard recovery bumps
// only that shard's epoch on kernels, so fencing is shard-local.

func TestShardEpochsIndependent(t *testing.T) {
	c := newCluster(t, 1)
	k := c.kernels[0]

	k.AdoptShardEpoch(2, 5)
	if got := k.CtrlShardEpoch(2); got != 5 {
		t.Fatalf("shard 2 epoch = %d, want 5", got)
	}
	if got := k.CtrlShardEpoch(0); got != 0 {
		t.Fatalf("adopting shard 2's epoch moved shard 0's to %d", got)
	}
	if got := k.CtrlShardEpoch(1); got != 0 {
		t.Fatalf("adopting shard 2's epoch moved shard 1's to %d", got)
	}

	// Monotone per shard, not across shards.
	k.AdoptShardEpoch(2, 3)
	if got := k.CtrlShardEpoch(2); got != 5 {
		t.Fatalf("shard 2 epoch lowered to %d", got)
	}
	k.AdoptShardEpoch(0, 1)
	if got := k.CtrlShardEpoch(2); got != 5 {
		t.Fatalf("shard 0 adoption disturbed shard 2: %d", got)
	}

	// The legacy API is the shard-0 view.
	if k.CtrlShardEpoch(0) != 1 {
		t.Fatalf("CtrlEpoch = %d, want shard 0's 1", k.CtrlShardEpoch(0))
	}
}

func TestShardEpochFencingIsShardLocal(t *testing.T) {
	c := newCluster(t, 1)
	_, meta := producerSetup(t, c, 0, 0x100000, 0x102000, []byte("shard-fence"))
	k := c.kernels[0]

	// Shard 1 recovered into epoch 2; shard 0 still runs epoch 1.
	k.AdoptShardEpoch(0, 1)
	k.AdoptShardEpoch(1, 2)

	// A zombie shard-1 coordinator (epoch 1) is fenced...
	err := k.DeregisterMemFencedShard(1, 1, meta.ID, meta.Key)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale shard-1 reclaim: %v, want ErrStaleEpoch", err)
	}
	if k.Registrations() != 1 {
		t.Fatal("stale shard-1 reclaim destroyed a live registration")
	}
	// ...while shard 0 at its own epoch 1 reclaims normally — another
	// shard's bumped epoch never fences this shard's commands.
	if err := k.DeregisterMemFencedShard(0, 1, meta.ID, meta.Key); err != nil {
		t.Fatalf("current-epoch shard-0 reclaim: %v", err)
	}
	if k.Registrations() != 0 {
		t.Fatalf("registrations = %d, want 0", k.Registrations())
	}

	// A newer-epoch command is an implicit announcement for its shard only.
	_, meta2 := producerSetup(t, c, 0, 0x200000, 0x201000, []byte("again"))
	if err := k.DeregisterMemFencedShard(3, 7, meta2.ID, meta2.Key); err != nil {
		t.Fatalf("newer-epoch shard-3 reclaim: %v", err)
	}
	if got := k.CtrlShardEpoch(3); got != 7 {
		t.Fatalf("shard 3 epoch = %d after epoch-7 command, want 7", got)
	}
	if got := k.CtrlShardEpoch(0); got != 1 {
		t.Fatalf("shard 3's announcement moved shard 0's epoch to %d", got)
	}
}
