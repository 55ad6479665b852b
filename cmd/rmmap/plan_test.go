package main

import (
	"encoding/binary"
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
	err := verifySlots([]ctrl.PlanSlot{
		{Fn: "produce", Inst: 0, Start: 0x10000, End: 0x20000},
		{Fn: "transform", Inst: 1, Start: 0x18000, End: 0x28000},
	})
	if err == nil {
		t.Fatal("overlapping slots passed verification")
	}
	if !strings.Contains(err.Error(), "transform#1") || !strings.Contains(err.Error(), "produce#0") {
		t.Fatalf("error does not name both offending slots: %v", err)
	}
	if err := verifySlots([]ctrl.PlanSlot{{Fn: "x", Inst: 0, Start: 8, End: 8}}); err == nil {
		t.Fatal("empty range passed verification")
	}
}

// journalSlots journals slots on a fresh coordinator and returns its
// RMCSAVE1 durable image.
func journalSlots(t *testing.T, slots ...ctrl.PlanSlot) []byte {
	t.Helper()
	c := ctrl.New(simtime.DefaultCostModel())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for _, sl := range slots {
		if err := c.IssueSlot(sl.Fn, sl.Inst, sl.Start, sl.End); err != nil {
			t.Fatal(err)
		}
	}
	return c.Save()
}

func writeSave(t *testing.T, blob []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ctrl.save")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunVerifyOverlap runs the full -verify path on a save file whose
// journal holds two overlapping slots: it must exit 2 and name both. The
// disjoint variant exits 0.
func TestRunVerifyOverlap(t *testing.T) {
	save := func(transformStart uint64) string {
		return writeSave(t, journalSlots(t,
			ctrl.PlanSlot{Fn: "produce", Inst: 0, Start: 0x10000, End: 0x20000},
			ctrl.PlanSlot{Fn: "transform", Inst: 1, Start: transformStart, End: 0x28000}))
	}

	var stdout, stderr strings.Builder
	if code := runVerify(save(0x18000), &stdout, &stderr); code != 2 {
		t.Fatalf("overlap: exit code = %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"produce#0", "transform#1", "overlaps"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("verify error missing %q:\n%s", want, stderr.String())
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := runVerify(save(0x20000), &stdout, &stderr); code != 0 {
		t.Fatalf("disjoint save failed verification (code %d):\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "plan verified: 2 journaled slots disjoint\n") {
		t.Fatalf("clean verify summary missing:\n%s", stdout.String())
	}
}

// TestRunVerifyCrossShardOverlap: the retired multi-shard container
// ("RMCSHRD" then '1' | u32 count | count × (u32 len | RMCSAVE1 blob)) is
// a corrupt save, exit 1 — even one whose two well-formed journals hold
// slots that overlap only across them. -verify reads one journal; it must
// neither audit the first nested image alone nor pass the file as clean.
func TestRunVerifyCrossShardOverlap(t *testing.T) {
	saves := [][]byte{
		journalSlots(t, ctrl.PlanSlot{Fn: "produce", Inst: 0, Start: 0x10000, End: 0x20000}),
		journalSlots(t, ctrl.PlanSlot{Fn: "transform", Inst: 1, Start: 0x18000, End: 0x28000}),
	}
	blob := binary.LittleEndian.AppendUint32([]byte("RMCSHRD\x31"), uint32(len(saves)))
	for _, sv := range saves {
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(sv)))
		blob = append(blob, sv...)
	}
	var stdout, stderr strings.Builder
	if code := runVerify(writeSave(t, blob), &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "corrupt") {
		t.Fatalf("multi-shard save: exit %d, stderr %q; want 1 and a corrupt-save error", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "plan verified") {
		t.Fatalf("multi-shard save reported as verified:\n%s", stdout.String())
	}
}
