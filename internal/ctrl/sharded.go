package ctrl

import (
	"errors"
	"fmt"
	"os"

	"rmmap/internal/simtime"
)

// Sharded control plane (DESIGN.md §15). The single journaled Coordinator
// becomes the shard unit: a Sharded plane owns N of them plus a
// consistent-hash Ring, and routes every operation to exactly one shard
// by registration key (plan slots by (fn, inst) hash, placements by pod
// hash). Each shard keeps its own write-ahead journal, snapshot schedule,
// epoch, and — on the engine side — its own deferred-op backlog, so a
// crash fences and backlogs one shard while the others keep serving.
//
// With one shard (the default), every routed call degenerates to a direct
// call on shard 0 and no shard-stamp records are journaled: byte streams,
// stats, and save files are identical to the pre-sharding control plane.

// ErrStaleRoute fences a routed operation whose ticket was minted before
// a shard recovery or a ring membership change: the holder's view of who
// owns the key may be stale, so it must re-route before the plane will
// serve it. The generation bump plays the role PR-3 generations play on
// the data plane — a rebalanced or recovering shard can never serve a
// plan to a client still holding its pre-crash route.
var ErrStaleRoute = errors.New("ctrl: stale route ticket (shard recovered or ring changed)")

// Ticket is a fenced route: the shard a key hashed to and the routing
// generation at mint time. Validate before use; a recovery or membership
// change in between invalidates it.
type Ticket struct {
	Shard int
	Gen   uint64
}

// Sharded is the N-shard control plane. Like its shards it is
// sim-thread-only: the engine calls it from commit closures and timers.
type Sharded struct {
	shards []*Coordinator
	ring   *Ring

	staleRoutes int
}

// NewSharded builds an n-shard control plane (n <= 0 or 1 gives the
// single-shard plane, byte-identical to the pre-sharding Coordinator).
func NewSharded(cm *simtime.CostModel, n int) *Sharded {
	if n <= 0 {
		n = 1
	}
	s := &Sharded{ring: NewRing(DefaultVnodes)}
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, New(cm))
		s.ring.Add(i)
	}
	return s
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns shard i (tests, stats, targeted chaos).
func (s *Sharded) Shard(i int) *Coordinator { return s.shards[i] }

// Start starts every shard: epoch 1 journaled, then — with more than one
// shard — the shard-identity stamp.
func (s *Sharded) Start() error {
	for i, sh := range s.shards {
		if err := sh.Start(); err != nil {
			return err
		}
		if len(s.shards) > 1 {
			if err := sh.StampShard(i, len(s.shards)); err != nil {
				return err
			}
		}
	}
	return nil
}

// RouteKey maps a raw routing key to its owning shard.
func (s *Sharded) RouteKey(key uint64) int {
	shard, ok := s.ring.Route(key)
	if !ok {
		return 0
	}
	return shard
}

// RouteRef routes a registration by its key — the registration key is
// already SplitMix64-scrambled by the engine, and the ring scrambles once
// more, so sequential IDs spread evenly.
func (s *Sharded) RouteRef(ref RegRef) int { return s.RouteKey(ref.Key) }

// RouteSlot routes an address-plan slot by its (function, instance) hash.
func (s *Sharded) RouteSlot(fn string, inst int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(fn); i++ {
		h ^= uint64(fn[i])
		h *= 1099511628211
	}
	return s.RouteKey(h ^ mix64(uint64(inst)))
}

// RoutePod routes a pod-placement entry by pod index.
func (s *Sharded) RoutePod(pod int) int { return s.RouteKey(mix64(uint64(pod))) }

// routeGen is the fencing generation for one shard: the ring membership
// generation plus the shard's crash count. A ticket minted before a
// membership change or a shard crash/recovery validates against neither.
func (s *Sharded) routeGen(shard int) uint64 {
	return s.ring.Gen() + uint64(s.shards[shard].Stats().Crashes)
}

// Ticket mints a fenced route for shard.
func (s *Sharded) Ticket(shard int) Ticket {
	return Ticket{Shard: shard, Gen: s.routeGen(shard)}
}

// ValidateTicket checks a route ticket against the current routing
// generation, returning ErrStaleRoute (and counting it) on mismatch.
func (s *Sharded) ValidateTicket(t Ticket) error {
	if t.Shard < 0 || t.Shard >= len(s.shards) || t.Gen != s.routeGen(t.Shard) {
		s.staleRoutes++
		return fmt.Errorf("%w: shard %d gen %d", ErrStaleRoute, t.Shard, t.Gen)
	}
	return nil
}

// IssueSlot journals one address-plan slot on its owning shard.
func (s *Sharded) IssueSlot(fn string, inst int, start, end uint64) error {
	return s.shards[s.RouteSlot(fn, inst)].IssueSlot(fn, inst, start, end)
}

// Place journals one pod placement on its owning shard.
func (s *Sharded) Place(pod, machine int) error {
	return s.shards[s.RoutePod(pod)].Place(pod, machine)
}

// Register inserts a directory entry on the ref's owning shard.
func (s *Sharded) Register(ref RegRef, machine int, allowed []uint64) error {
	return s.shards[s.RouteRef(ref)].Register(ref, machine, allowed)
}

// AddRef adds one payload reference on the ref's owning shard.
func (s *Sharded) AddRef(ref RegRef) error {
	return s.shards[s.RouteRef(ref)].AddRef(ref)
}

// ExtendACL journals additional allowed consumers on the owning shard.
func (s *Sharded) ExtendACL(ref RegRef, more []uint64) error {
	return s.shards[s.RouteRef(ref)].ExtendACL(ref, more)
}

// Release drops one reference on the owning shard — reclamation is
// shard-local: a deregister consults only this shard's directory.
func (s *Sharded) Release(ref RegRef) (machine int, last bool, err error) {
	return s.shards[s.RouteRef(ref)].Release(ref)
}

// NoteReclaim journals a reclamation order on the owning shard.
func (s *Sharded) NoteReclaim(ref RegRef, machine int) error {
	return s.shards[s.RouteRef(ref)].NoteReclaim(ref, machine)
}

// Lookup returns the directory entry for ref from its owning shard.
func (s *Sharded) Lookup(ref RegRef) *Registration {
	return s.shards[s.RouteRef(ref)].Lookup(ref)
}

// NoteDeferred counts one backlogged operation against shard.
func (s *Sharded) NoteDeferred(shard int) { s.shards[shard].NoteDeferred() }

// Down reports whether ANY shard is down. New submissions need
// registrations journaled on whichever shard their keys hash to, so one
// crashed shard sheds fresh arrivals; in-flight work never blocks — its
// operations defer per shard.
func (s *Sharded) Down() bool {
	for _, sh := range s.shards {
		if sh.Down() {
			return true
		}
	}
	return false
}

// ShardDown reports whether shard i is down.
func (s *Sharded) ShardDown(i int) bool { return s.shards[i].Down() }

// ShardEpoch returns shard i's adopted epoch.
func (s *Sharded) ShardEpoch(i int) uint64 { return s.shards[i].Epoch() }

// Live returns the total live registrations across shards.
func (s *Sharded) Live() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Live()
	}
	return n
}

// ShardLive returns per-shard live registration counts (the input to
// admit.BackpressureLive — a hot shard trips the watermark early).
func (s *Sharded) ShardLive() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Live()
	}
	return out
}

// PlanSlots returns every shard's issued slots, shard-major in issuance
// order.
func (s *Sharded) PlanSlots() []PlanSlot {
	var out []PlanSlot
	for _, sh := range s.shards {
		out = append(out, sh.PlanSlots()...)
	}
	return out
}

// Stats sums the shards' counters and adds the plane-level stale-route
// count.
func (s *Sharded) Stats() Stats {
	var total Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		total.Appends += st.Appends
		total.JournalBytes += st.JournalBytes
		total.Snapshots += st.Snapshots
		total.SnapshotBytes += st.SnapshotBytes
		total.Replays += st.Replays
		total.Crashes += st.Crashes
		total.Recoveries += st.Recoveries
		total.EpochBumps += st.EpochBumps
		total.Deferred += st.Deferred
		total.DriftDropped += st.DriftDropped
		total.DriftAdopted += st.DriftAdopted
	}
	total.StaleRoutes = s.staleRoutes
	return total
}

// Crash takes shard down (shard -1: every shard — the legacy
// whole-coordinator crash).
func (s *Sharded) Crash(shard int) {
	if shard < 0 {
		for _, sh := range s.shards {
			sh.Crash()
		}
		return
	}
	s.shards[shard].Crash()
}

// RecoverShard brings shard i back (snapshot load + journal replay +
// epoch bump) and — with more than one shard — re-stamps its journal, so
// the post-recovery stream stays self-describing even after the replayed
// stamp was compacted into a snapshot.
func (s *Sharded) RecoverShard(i int) (RecoveryReport, error) {
	rep, err := s.shards[i].Recover()
	if err != nil {
		return rep, err
	}
	if len(s.shards) > 1 {
		if err := s.shards[i].StampShard(i, len(s.shards)); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// ReconcileShard reconciles shard i against live kernel listings,
// considering only the refs the ring routes to shard i — refs owned by
// other shards are their directories' business, never this shard's drift.
func (s *Sharded) ReconcileShard(i int, listings []MachineRegs) ReconcileReport {
	if len(s.shards) == 1 {
		return s.shards[0].Reconcile(listings)
	}
	filtered := make([]MachineRegs, 0, len(listings))
	for _, l := range listings {
		fl := MachineRegs{Machine: l.Machine}
		for _, ref := range l.Refs {
			if s.RouteRef(ref) == i {
				fl.Refs = append(fl.Refs, ref)
			}
		}
		filtered = append(filtered, fl)
	}
	return s.shards[i].Reconcile(filtered)
}

// Sharded save container. One shard saves exactly the legacy "RMCSAVE1"
// blob; N > 1 shards nest their blobs:
//
//	"RMCSHRD1" | u32 nshards | nshards × (u32 len | RMCSAVE1 blob)
const shardedMagic = "RMCSHRD1"

// EncodeShardedSave frames per-shard save blobs into one container.
func EncodeShardedSave(saves [][]byte) []byte {
	var out []byte
	out = append(out, shardedMagic...)
	out = appendU32(out, uint32(len(saves)))
	for _, sv := range saves {
		out = appendU32(out, uint32(len(sv)))
		out = append(out, sv...)
	}
	return out
}

// Save returns the durable image: the single shard's legacy blob, or the
// sharded container.
func (s *Sharded) Save() []byte {
	if len(s.shards) == 1 {
		return s.shards[0].Save()
	}
	saves := make([][]byte, len(s.shards))
	for i, sh := range s.shards {
		saves[i] = sh.Save()
	}
	return EncodeShardedSave(saves)
}

// SaveFile writes the durable image to path (rmmap chaos -ctrl-journal;
// audited by rmmap plan -verify).
func (s *Sharded) SaveFile(path string) error {
	return os.WriteFile(path, s.Save(), 0o644)
}

// ShardState is one shard's recovered view from a save file.
type ShardState struct {
	Shard    int
	State    *State
	Replayed int
}

// LoadShardStates rebuilds every shard's State from a save blob — either
// the legacy single-shard "RMCSAVE1" format (one entry, shard 0) or the
// "RMCSHRD1" container.
func LoadShardStates(data []byte) ([]ShardState, error) {
	if len(data) >= len(shardedMagic) && string(data[:len(shardedMagic)]) == shardedMagic {
		r := &bodyReader{b: data, pos: len(shardedMagic)}
		n := int(r.u32())
		if r.err || n <= 0 || n > 1<<16 {
			return nil, &CorruptError{Pos: r.pos, Reason: fmt.Sprintf("sharded save: bad shard count %d", n)}
		}
		out := make([]ShardState, 0, n)
		for i := 0; i < n; i++ {
			l := int(r.u32())
			if r.err || l < 0 || r.pos+l > len(data) {
				return nil, &CorruptError{Pos: r.pos, Reason: fmt.Sprintf("sharded save: shard %d section truncated", i)}
			}
			st, replayed, err := LoadState(data[r.pos : r.pos+l])
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			r.pos += l
			out = append(out, ShardState{Shard: i, State: st, Replayed: replayed})
		}
		if r.pos != len(data) {
			return nil, &CorruptError{Pos: r.pos, Reason: fmt.Sprintf("sharded save: %d trailing bytes", len(data)-r.pos)}
		}
		return out, nil
	}
	st, replayed, err := LoadState(data)
	if err != nil {
		return nil, err
	}
	return []ShardState{{Shard: 0, State: st, Replayed: replayed}}, nil
}

// LoadShardStatesFile reads and decodes a save file written by SaveFile
// (either format).
func LoadShardStatesFile(path string) ([]ShardState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadShardStates(data)
}
