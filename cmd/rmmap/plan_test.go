package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmmap/internal/ctrl"
	"rmmap/internal/simtime"
)

// TestVerifySlotsRoundTrip journals a disjoint plan, saves the durable
// image, reloads it the way -verify does, and expects a clean audit.
func TestVerifySlotsRoundTrip(t *testing.T) {
	c := ctrl.New(simtime.DefaultCostModel())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.IssueSlot("produce", 0, 0x10000, 0x20000); err != nil {
		t.Fatal(err)
	}
	if err := c.IssueSlot("sink", 0, 0x20000, 0x30000); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ctrl.save")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if code := runVerify(path, &stdout, &stderr); code != 0 {
		t.Fatalf("disjoint plan failed verification (code %d):\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, ", 2 slots,") || strings.Contains(out, "(0 journal records replayed)") {
		t.Fatalf("want a replayed 2-slot journal:\n%s", out)
	}
}

// TestVerifySlotsRejectsOverlap: the audit must name the offending slot
// and refuse overlapping or malformed ranges.
func TestVerifySlotsRejectsOverlap(t *testing.T) {
	err := verifyShardSlots([]shardSlot{
		{slot: ctrl.PlanSlot{Fn: "produce", Inst: 0, Start: 0x10000, End: 0x20000}},
		{slot: ctrl.PlanSlot{Fn: "transform", Inst: 1, Start: 0x18000, End: 0x28000}},
	})
	if err == nil {
		t.Fatal("overlapping slots passed verification")
	}
	if !strings.Contains(err.Error(), "transform#1") || !strings.Contains(err.Error(), "produce#0") {
		t.Fatalf("error does not name both offending slots: %v", err)
	}
	if err := verifyShardSlots([]shardSlot{{slot: ctrl.PlanSlot{Fn: "x", Inst: 0, Start: 8, End: 8}}}); err == nil {
		t.Fatal("empty range passed verification")
	}
}

// TestRunVerifyCrossShardOverlap builds two shard journals whose slots
// overlap ACROSS shards (each shard is internally disjoint), frames them
// into the sharded save container, and runs the full -verify path: it
// must exit 2 and name both shards in the error.
func TestRunVerifyCrossShardOverlap(t *testing.T) {
	cm := simtime.DefaultCostModel()
	c0 := ctrl.New(cm)
	c1 := ctrl.New(cm)
	for i, c := range []*ctrl.Coordinator{c0, c1} {
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		if err := c.StampShard(i, 2); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 0: [0x10000,0x20000). Shard 1: [0x18000,0x28000) — the overlap
	// only exists in the cross-shard union.
	if err := c0.IssueSlot("produce", 0, 0x10000, 0x20000); err != nil {
		t.Fatal(err)
	}
	if err := c1.IssueSlot("transform", 1, 0x18000, 0x28000); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ctrl.save")
	blob := ctrl.EncodeShardedSave([][]byte{c0.Save(), c1.Save()})
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr strings.Builder
	code := runVerify(path, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("runVerify exit code = %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	msg := stderr.String()
	for _, want := range []string{"produce#0", "shard 0", "transform#1", "shard 1", "overlaps"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("verify error missing %q:\n%s", want, msg)
		}
	}
	if !strings.Contains(stdout.String(), "shard 1: epoch 1") {
		t.Fatalf("per-shard summary missing:\n%s", stdout.String())
	}

	// The same layout with the overlap removed (shard 0 rebuilt with a
	// disjoint range) must verify cleanly, with a cross-shard summary line.
	c2 := ctrl.New(cm)
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c2.StampShard(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := c2.IssueSlot("produce", 0, 0x10000, 0x18000); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, ctrl.EncodeShardedSave([][]byte{c2.Save(), c1.Save()}), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := runVerify(path, &stdout, &stderr); code != 0 {
		t.Fatalf("disjoint sharded save failed verification (code %d):\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "across 2 shards") {
		t.Fatalf("clean sharded verify missing cross-shard summary:\n%s", stdout.String())
	}
}
