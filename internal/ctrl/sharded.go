package ctrl

import "rmmap/internal/simtime"

// Sharded is N independent coordinators behind a consistent-hash Ring,
// each registration routed by key to exactly one of them. The platform
// runs one Coordinator; Sharded exists only as the perf ledger's fixture
// for the ctrl.churn_ns_s1/_s16 pair, which prices what splitting the
// directory across journals would save in snapshot compaction. A
// benchmark change that drops ctrl.churn_ns_s16 deletes this file and
// ring.go.
type Sharded struct {
	shards []*Coordinator
	ring   *Ring
}

// NewSharded builds an n-shard plane (n <= 0 gives one shard).
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

// Start starts every shard (epoch 1 journaled on each).
func (s *Sharded) Start() error {
	for _, sh := range s.shards {
		if err := sh.Start(); err != nil {
			return err
		}
	}
	return nil
}

// owner returns the shard ref's key routes to.
func (s *Sharded) owner(ref RegRef) *Coordinator {
	shard, _ := s.ring.Route(ref.Key)
	return s.shards[shard]
}

// Register inserts a directory entry on the ref's owning shard.
func (s *Sharded) Register(ref RegRef, machine int, allowed []uint64) error {
	return s.owner(ref).Register(ref, machine, allowed)
}

// Release drops one reference on the ref's owning shard.
func (s *Sharded) Release(ref RegRef) (machine int, last bool, err error) {
	return s.owner(ref).Release(ref)
}

// Live returns the total live registrations across shards.
func (s *Sharded) Live() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Live()
	}
	return n
}

// Stats sums the shards' counters.
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
	return total
}
