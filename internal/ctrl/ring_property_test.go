package ctrl

import (
	"math/rand"
	"testing"
)

// Ring property test: as seeded random members join, every key routes to
// exactly one member, and each Add(s) moves only the keys the
// consistent-hash contract allows — every key that moves now routes to s
// (nobody else gains keys), and the count stays ~K/N, bounded here by
// vnode-variance slack. The test is deterministic (fixed seed).
func TestRingChurnProperty(t *testing.T) {
	const (
		keys     = 2048
		maxShard = 32
	)
	rng := rand.New(rand.NewSource(20260807))
	ks := make([]uint64, keys)
	for i := range ks {
		ks[i] = rng.Uint64()
	}

	r := NewRing(DefaultVnodes)
	live := map[int]bool{}
	for s := 0; s < 4; s++ {
		r.Add(s)
		live[s] = true
	}

	routes := func() map[uint64]int {
		out := make(map[uint64]int, len(ks))
		for _, k := range ks {
			shard, ok := r.Route(k)
			if !ok {
				t.Fatalf("Route(%#x) failed on a %d-member ring", k, len(live))
			}
			if !live[shard] {
				t.Fatalf("key %#x routed to non-member shard %d", k, shard)
			}
			out[k] = shard
		}
		return out
	}

	before := routes()
	for _, target := range rng.Perm(maxShard) {
		if live[target] {
			continue
		}
		r.Add(target)
		live[target] = true

		after := routes()
		moved := 0
		for _, k := range ks {
			if before[k] == after[k] {
				continue
			}
			moved++
			if after[k] != target {
				t.Fatalf("Add(%d) moved key %#x to shard %d (only the new shard may gain keys)",
					target, k, after[k])
			}
		}
		// ~K/N movement: the expected move is keys/len(live); allow vnode
		// variance slack (the exact-ownership assertion above is the sharp
		// invariant — this bounds the magnitude).
		bound := 4*keys/len(live) + 16
		if moved > bound {
			t.Fatalf("Add(%d) (%d members): %d keys moved, bound %d (~K/N expected %d)",
				target, len(live), moved, bound, keys/len(live))
		}
		before = after
	}
}

// TestRingBalance pins that DefaultVnodes keeps per-shard load within a
// sane factor of fair share at the shard counts the control plane uses.
func TestRingBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 4, 16} {
		r := NewRing(DefaultVnodes)
		for s := 0; s < n; s++ {
			r.Add(s)
		}
		counts := make([]int, n)
		const keys = 1 << 14
		for i := 0; i < keys; i++ {
			shard, ok := r.Route(rng.Uint64())
			if !ok {
				t.Fatal("route failed")
			}
			counts[shard]++
		}
		fair := keys / n
		for s, c := range counts {
			if c > 3*fair || c < fair/3 {
				t.Fatalf("%d shards: shard %d owns %d of %d keys (fair %d)", n, s, c, keys, fair)
			}
		}
	}
}
