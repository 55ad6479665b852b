package ctrl

import "sort"

// Consistent-hash ring: Sharded's routing function (see sharded.go for
// why it exists). Each member contributes vnodes points hashed onto a
// 64-bit circle, and a key routes to the owner of the first point at or
// clockwise of the key's hash. Adding a member moves only the keys its
// points capture — the ~K/N movement bound the ring_property test pins.
//
// The ring is deterministic: point positions are a pure function of
// (shard, vnode index) under the SplitMix64 finalizer, and routing is a
// pure function of the key.

// DefaultVnodes is the virtual-node count per shard — enough that the
// per-shard load imbalance stays small at the ledger's 16 shards.
const DefaultVnodes = 64

// Ring is a consistent-hash ring over integer shard IDs. It is
// sim-thread-only like the Coordinator: no internal locking.
type Ring struct {
	vnodes int
	points []ringPoint
}

type ringPoint struct {
	h     uint64
	shard int
}

// mix64 is the SplitMix64 finalizer — the same scramble the engine uses
// for registration keys, so routing input is uniformly spread even for
// sequential IDs.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pointHash positions one (shard, vnode) point on the circle.
func pointHash(shard, vnode int) uint64 {
	return mix64(mix64(uint64(shard)+1) ^ (uint64(vnode) + 0x51_7cc1b727220a95))
}

// NewRing returns an empty ring; vnodes <= 0 selects DefaultVnodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes}
}

// Add inserts a shard's points; adding a member twice is a no-op.
func (r *Ring) Add(shard int) {
	for _, p := range r.points {
		if p.shard == shard {
			return
		}
	}
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{h: pointHash(shard, v), shard: shard})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].shard < r.points[j].shard // deterministic tie-break
	})
}

// Route maps a key to its owning shard: the first point at or clockwise
// of mix64(key). ok is false only on an empty ring.
func (r *Ring) Route(key uint64) (shard int, ok bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := mix64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].shard, true
}
