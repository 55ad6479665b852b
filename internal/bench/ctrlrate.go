package bench

import (
	"fmt"

	"rmmap/internal/ctrl"
	"rmmap/internal/simtime"
)

// The control-plane sharding ablation (DESIGN.md §15): register/release
// churn and address-plan issuance against a large live directory at
// several shard counts, run sequentially and priced on each shard's
// virtual storage meter. Shards are independent journals, so the busiest
// shard's storage time is what bounds the control plane. Each shard
// appends only the records its keys route to (the fixed per-append charge
// dominates, so total storage time stays flat while the busiest shard's
// falls ~N×), and snapshot compaction re-encodes a shard's full state
// every SnapshotEvery journal bytes: a single shard holding K live
// registrations pays O(K) per snapshot while N shards each pay O(K/N) —
// and cross the byte trigger N× less often. The host cost of the same
// churn is the ledger's ctrl.churn_ns_s1 vs ctrl.churn_ns_s16
// (benchmark/).

// ctrlRow is one shard count's outcome. Every field is virtual or a count.
type ctrlRow struct {
	Shards int
	// Snapshots/SnapshotBytes are the compaction work that separates the
	// shard counts; JournalBytes is near-identical across them.
	Snapshots     int
	SnapshotBytes int64
	JournalBytes  int64
	// BusiestStorage is the largest per-shard virtual storage time
	// (CatStorage) charged by the churn and plan phases, after seeding.
	BusiestStorage simtime.Duration
}

// Calibrated harness sizes (scaled by -scale).
const (
	ctrlLive  = 40000 // standing live registrations
	ctrlChurn = 30000 // register+release pairs
	ctrlPlans = 5000  // address-plan slot issuances
)

// ctrlMix is SplitMix64's finalizer — the same scrambling the engine
// applies to registration keys, so the harness keys spread like real ones.
func ctrlMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// collectCtrl runs the control-plane ablation at each shard count.
func collectCtrl(shardCounts []int, scale float64) ([]ctrlRow, error) {
	live := scaleInt(ctrlLive, scale)
	churn := scaleInt(ctrlChurn, scale)
	plans := scaleInt(ctrlPlans, scale)
	var rows []ctrlRow
	for _, shards := range shardCounts {
		row, err := ctrlCell(shards, live, churn, plans)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ctrlCell runs the shards in order; each seeds its share of the live
// directory, then runs its churn pairs and plan issuances.
func ctrlCell(shards, live, churn, plans int) (ctrlRow, error) {
	row := ctrlRow{Shards: shards}
	plane := ctrl.NewSharded(simtime.DefaultCostModel(), shards)
	if err := plane.Start(); err != nil {
		return row, err
	}

	seedRefs := make([][]ctrl.RegRef, shards)
	churnRefs := make([][]ctrl.RegRef, shards)
	for i := 0; i < live; i++ {
		ref := ctrl.RegRef{ID: uint64(i), Key: ctrlMix(uint64(i))}
		s := plane.RouteRef(ref)
		seedRefs[s] = append(seedRefs[s], ref)
	}
	for i := 0; i < churn; i++ {
		ref := ctrl.RegRef{ID: uint64(live + i), Key: ctrlMix(uint64(live + i))}
		s := plane.RouteRef(ref)
		churnRefs[s] = append(churnRefs[s], ref)
	}
	planShards := make([][]int, shards)
	for i := 0; i < plans; i++ {
		s := plane.RouteSlot("ctrl-rate", i)
		planShards[s] = append(planShards[s], i)
	}

	for s := 0; s < shards; s++ {
		sh := plane.Shard(s)
		for _, ref := range seedRefs[s] {
			if err := sh.Register(ref, int(ref.ID)%4, nil); err != nil {
				return row, err
			}
		}
		seeded := sh.Meter().Get(simtime.CatStorage)
		for _, ref := range churnRefs[s] {
			if err := sh.Register(ref, int(ref.ID)%4, nil); err != nil {
				return row, err
			}
			if _, _, err := sh.Release(ref); err != nil {
				return row, err
			}
		}
		for _, inst := range planShards[s] {
			base := uint64(inst) << 21
			if err := sh.IssueSlot("ctrl-rate", inst, base, base+1<<21); err != nil {
				return row, err
			}
		}
		row.BusiestStorage = max(row.BusiestStorage, sh.Meter().Get(simtime.CatStorage)-seeded)
	}

	st := plane.Stats()
	row.Snapshots = st.Snapshots
	row.SnapshotBytes = st.SnapshotBytes
	row.JournalBytes = st.JournalBytes
	if got := plane.Live(); got != live {
		return row, fmt.Errorf("abl-ctrl: %d live registrations after churn, want %d", got, live)
	}
	return row, nil
}

func init() {
	register(Experiment{
		ID:    "abl-ctrl",
		Title: "Sharded control plane: compaction work and busiest-shard storage time vs. shard count",
		Expect: "each shard journals only its keys and compacts only live/N entries: total storage " +
			"time stays flat while the 16-shard plane's busiest shard spends <= 1/3 of the single shard's",
		Run: func(scale float64) (Result, error) {
			rows, err := collectCtrl([]int{1, 4, 16}, scale)
			if err != nil {
				return nil, err
			}
			t := &Table{
				Caption: []string{fmt.Sprintf("live registrations: %d, churn pairs: %d, plans: %d",
					scaleInt(ctrlLive, scale), scaleInt(ctrlChurn, scale), scaleInt(ctrlPlans, scale)), ""},
				Header: []string{"shards", "snapshots", "snapshot bytes", "journal bytes", "busiest-shard storage"},
			}
			for _, r := range rows {
				t.add(r.Shards, r.Snapshots, r.SnapshotBytes, r.JournalBytes, r.BusiestStorage)
			}
			first, last := rows[0], rows[len(rows)-1]
			t.Note = []string{"", fmt.Sprintf("busiest shard, %d vs %d shards: %s", first.Shards, last.Shards,
				speedup(float64(first.BusiestStorage), float64(last.BusiestStorage)))}
			return Result{t}, nil
		},
	})
}
