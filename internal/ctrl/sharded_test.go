package ctrl

import (
	"bytes"
	"errors"
	"testing"

	"rmmap/internal/simtime"
)

// The ledger fixture routes every Register/Release to exactly one shard,
// and Live/Stats sum across shards.
func TestShardedRouting(t *testing.T) {
	s := NewSharded(simtime.DefaultCostModel(), 16)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	refs := make([]RegRef, 256)
	for i := range refs {
		refs[i] = RegRef{ID: uint64(i), Key: mix64(uint64(i) * 2654435761)}
		if err := s.Register(refs[i], 0, nil); err != nil {
			t.Fatal(err)
		}
		owners := 0
		for _, sh := range s.shards {
			if sh.Lookup(refs[i]) != nil {
				owners++
			}
		}
		if owners != 1 || s.owner(refs[i]).Lookup(refs[i]) == nil {
			t.Fatalf("ref %v held by %d shards, want its owner only", refs[i], owners)
		}
	}
	if s.shards[0].Live() == len(refs) {
		t.Fatal("all 256 keys routed to shard 0: the ring is not spreading")
	}
	if s.Live() != len(refs) {
		t.Fatalf("Live() = %d, want %d", s.Live(), len(refs))
	}
	for _, ref := range refs[:100] {
		if _, last, err := s.Release(ref); err != nil || !last {
			t.Fatalf("Release(%v) = last %v, err %v", ref, last, err)
		}
	}
	if s.Live() != len(refs)-100 {
		t.Fatalf("Live() = %d after 100 releases, want %d", s.Live(), len(refs)-100)
	}
	// 16 epoch records + 256 registers + 100 releases.
	if st := s.Stats(); st.Appends != 16+256+100 || st.EpochBumps != 16 {
		t.Fatalf("summed stats: appends %d epoch bumps %d, want %d and 16", st.Appends, st.EpochBumps, 16+256+100)
	}
}

// One shard is the bare Coordinator: the s1 leg of the ledger pair.
func TestShardedSingleMatchesCoordinator(t *testing.T) {
	cm := simtime.DefaultCostModel()
	s, c := NewSharded(cm, 1), New(cm)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		ref := RegRef{ID: uint64(i), Key: mix64(uint64(i))}
		if err := s.Register(ref, i%4, []uint64{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := c.Register(ref, i%4, []uint64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats() != c.Stats() || s.Live() != c.Live() {
		t.Fatalf("single-shard plane diverged: %+v vs %+v", s.Stats(), c.Stats())
	}
}

func newSharded(t *testing.T, n int) *Sharded {
	t.Helper()
	s := NewSharded(simtime.DefaultCostModel(), n)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

// registerN registers n refs through the fixture and returns them.
func registerN(t *testing.T, s *Sharded, n int, salt uint64) []RegRef {
	t.Helper()
	refs := make([]RegRef, n)
	for i := range refs {
		refs[i] = RegRef{ID: uint64(i), Key: mix64(uint64(i) ^ salt)}
		if err := s.Register(refs[i], i%3, nil); err != nil {
			t.Fatal(err)
		}
	}
	return refs
}

// Each shard is a whole journaled Coordinator: crashing one fences only
// it. The crashed shard loses its epoch and refuses its own refs; the
// others keep serving at epoch 1; recovery brings the victim to epoch 2.
func TestShardedSingleShardCrash(t *testing.T) {
	s := newSharded(t, 4)
	const victim = 2
	s.shards[victim].Crash()
	for i, sh := range s.shards {
		if sh.Down() != (i == victim) {
			t.Fatalf("shard %d Down() = %v", i, sh.Down())
		}
		want := uint64(1)
		if i == victim {
			want = 0 // the volatile view died with the process
		}
		if sh.Epoch() != want {
			t.Fatalf("shard %d epoch = %d, want %d", i, sh.Epoch(), want)
		}
	}
	var served, refused int
	for k := uint64(0); served == 0 || refused == 0; k++ {
		ref := RegRef{ID: k, Key: mix64(k)}
		err := s.Register(ref, 0, nil)
		switch {
		case s.owner(ref) == s.shards[victim] && errors.Is(err, ErrDown):
			refused++
		case s.owner(ref) != s.shards[victim] && err == nil:
			served++
		default:
			t.Fatalf("Register(%v) = %v on owner down=%v", ref, err, s.owner(ref).Down())
		}
	}
	if _, err := s.shards[victim].Recover(); err != nil {
		t.Fatal(err)
	}
	for i, sh := range s.shards {
		want := uint64(1)
		if i == victim {
			want = 2
		}
		if sh.Epoch() != want {
			t.Fatalf("after recovery shard %d epoch = %d, want %d", i, sh.Epoch(), want)
		}
	}
	if st := s.Stats(); st.Crashes != 1 || st.Recoveries != 1 {
		t.Fatalf("stats: crashes=%d recoveries=%d, want 1/1", st.Crashes, st.Recoveries)
	}
}

// A recovered shard replays its pre-crash journal, so every ref it owned
// is found again through the fixture's routing.
func TestShardedRecoveryReplaysState(t *testing.T) {
	s := newSharded(t, 4)
	refs := registerN(t, s, 128, 1<<20)
	const victim = 1
	before := s.shards[victim].Live()
	s.shards[victim].Crash()
	if s.Live() != len(refs)-before {
		t.Fatalf("Live() = %d with shard %d down, want %d", s.Live(), victim, len(refs)-before)
	}
	rep, err := s.shards[victim].Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed == 0 || s.Live() != len(refs) {
		t.Fatalf("recovery replayed %d records, Live() = %d; want > 0 and %d", rep.Replayed, s.Live(), len(refs))
	}
	for _, ref := range refs {
		if s.owner(ref).Lookup(ref) == nil {
			t.Fatalf("ref %v lost across shard %d recovery", ref, victim)
		}
	}
}

// Reconciling one shard against a kernel listing of its own refs changes
// that shard alone: the lost ref is dropped, a kernel-only ref adopted,
// and every other shard keeps its directory.
func TestShardedReconcileIsShardLocal(t *testing.T) {
	s := newSharded(t, 4)
	refs := registerN(t, s, 64, 0x9e3779b9)
	var mine []RegRef
	for _, ref := range refs {
		if s.owner(ref) == s.shards[0] && ref.ID%3 == 0 {
			mine = append(mine, ref)
		}
	}
	if len(mine) < 2 {
		t.Fatalf("shard 0 owns %d machine-0 refs, want >= 2", len(mine))
	}
	others := make([]int, len(s.shards))
	for i, sh := range s.shards {
		others[i] = sh.Live()
	}
	drop := mine[len(mine)-1]
	adopt := RegRef{ID: 1 << 40, Key: 7}
	listing := append(append([]RegRef{}, mine[:len(mine)-1]...), adopt)
	rep := s.shards[0].Reconcile([]MachineRegs{{Machine: 0, Refs: listing}})
	if len(rep.Dropped) != 1 || rep.Dropped[0] != drop {
		t.Fatalf("dropped %v, want [%v]", rep.Dropped, drop)
	}
	if len(rep.Adopted) != 1 || rep.Adopted[0] != adopt {
		t.Fatalf("adopted %v, want [%v]", rep.Adopted, adopt)
	}
	for i, sh := range s.shards[1:] {
		if sh.Live() != others[i+1] || sh.Stats().DriftDropped+sh.Stats().DriftAdopted != 0 {
			t.Fatalf("shard %d touched by shard 0's reconcile: live %d (was %d), %+v", i+1, sh.Live(), others[i+1], sh.Stats())
		}
	}
	if st := s.Stats(); st.DriftDropped != 1 || st.DriftAdopted != 1 || s.Live() != len(refs) {
		t.Fatalf("summed drift %d/%d, Live() %d; want 1/1 and %d", st.DriftDropped, st.DriftAdopted, s.Live(), len(refs))
	}
}

// Every shard's durable image round-trips through LoadState on its own,
// and the one-shard fixture saves exactly the bare Coordinator's bytes.
func TestShardedSaveLoadRoundTrip(t *testing.T) {
	s := newSharded(t, 4)
	refs := registerN(t, s, 200, 11400714819323198485)
	total := 0
	for i, sh := range s.shards {
		st, _, err := LoadState(sh.Save())
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if len(st.Regs) != sh.Live() || st.Epoch != 1 {
			t.Fatalf("shard %d loaded %d regs at epoch %d, want %d at 1", i, len(st.Regs), st.Epoch, sh.Live())
		}
		for ref := range st.Regs {
			if s.owner(ref) != sh {
				t.Fatalf("shard %d saved foreign ref %v", i, ref)
			}
		}
		total += len(st.Regs)
	}
	if total != len(refs) {
		t.Fatalf("round-tripped %d regs, want %d", total, len(refs))
	}

	single, bare := newSharded(t, 1), New(simtime.DefaultCostModel())
	if err := bare.Start(); err != nil {
		t.Fatal(err)
	}
	ref := RegRef{ID: 1, Key: 2}
	if err := single.Register(ref, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := bare.Register(ref, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(single.shards[0].Save(), bare.Save()) {
		t.Fatal("one-shard fixture save differs from the bare Coordinator's")
	}
}

// A damaged shard image fails loudly with *CorruptError, not a panic or
// a half-loaded directory.
func TestShardedSaveCorruption(t *testing.T) {
	s := newSharded(t, 2)
	registerN(t, s, 16, 3)
	blob := s.shards[0].Save()
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated header", blob[:len(saveMagic)+2]},
		{"truncated section", blob[:len(blob)-3]},
		{"trailing bytes", append(append([]byte{}, blob...), 0xAA)},
		{"foreign magic", append([]byte("RMCSHRD\x31"), blob[len(saveMagic):]...)},
	} {
		var ce *CorruptError
		if _, _, err := LoadState(tc.data); !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want *CorruptError", tc.name, err)
		}
	}
}

// Stats sums every shard's crash, recovery and epoch counters.
func TestShardedCrashAllAggregates(t *testing.T) {
	s := newSharded(t, 3)
	registerN(t, s, 30, 5)
	for _, sh := range s.shards {
		sh.Crash()
	}
	if s.Live() != 0 {
		t.Fatalf("Live() = %d with every shard down, want 0", s.Live())
	}
	for i, sh := range s.shards {
		if _, err := sh.Recover(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Crashes != 3 || st.Recoveries != 3 {
		t.Fatalf("aggregate crashes=%d recoveries=%d, want 3/3", st.Crashes, st.Recoveries)
	}
	// Start: 3 epoch bumps; recoveries: 3 more.
	if st.EpochBumps != 6 || s.Live() != 30 {
		t.Fatalf("aggregate epoch bumps = %d, Live() = %d; want 6 and 30", st.EpochBumps, s.Live())
	}
}
