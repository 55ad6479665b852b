package bench

import (
	"testing"
)

func TestCtrlRateExperimentRegistered(t *testing.T) {
	tbl := tiny(t, "abl-ctrl")[0]
	if len(tbl.Rows) != 3 || tbl.Cell(2, "shards") != 16 {
		t.Fatalf("abl-ctrl rows = %v, want shard counts 1, 4, 16", tbl.Rows)
	}
}

// TestCtrlShardingFullScale pins the abl-ctrl experiment at full scale.
// The counts are exact; the 16-shard plane's busiest shard must spend at
// most a third of the single shard's virtual storage time, because each
// shard journals and compacts only its own keys (DESIGN.md §15).
func TestCtrlShardingFullScale(t *testing.T) {
	rows, err := collectCtrl([]int{1, 4, 16}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	want := []ctrlRow{
		{Shards: 1, Snapshots: 11, SnapshotBytes: 9479102, JournalBytes: 3120017},
		{Shards: 4, Snapshots: 11, SnapshotBytes: 2803031, JournalBytes: 3120136},
		{Shards: 16, Snapshots: 0, SnapshotBytes: 0, JournalBytes: 3120544},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		got := r
		got.BusiestStorage = 0
		if got != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got, want[i])
		}
		if r.BusiestStorage <= 0 {
			t.Errorf("shards=%d: no storage time charged", r.Shards)
		}
	}
	single, sharded := rows[0].BusiestStorage, rows[2].BusiestStorage
	t.Logf("busiest-shard storage: 1 shard %v, 4 shards %v, 16 shards %v",
		single, rows[1].BusiestStorage, sharded)
	if 3*sharded > single {
		t.Fatalf("16-shard busiest shard %v > 1/3 of single shard %v", sharded, single)
	}
}
