package platform

import (
	"strings"
	"testing"
)

// TestParseMode covers every report name and alias the CLIs accept, in
// any case, and the rejection of an unknown name.
func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{
		{"messaging", ModeMessaging},
		{"storage(pocket)", ModeStoragePocket},
		{"pocket", ModeStoragePocket},
		{"storage-pocket", ModeStoragePocket},
		{"storage(rdma)", ModeStorageDrTM},
		{"rdma", ModeStorageDrTM},
		{"drtm", ModeStorageDrTM},
		{"storage-rdma", ModeStorageDrTM},
		{"storage-drtm", ModeStorageDrTM},
		{"rmmap", ModeRMMAP},
		{"rmmap(prefetch)", ModeRMMAPPrefetch},
		{"prefetch", ModeRMMAPPrefetch},
		{"rmmap-prefetch", ModeRMMAPPrefetch},
		{"Messaging", ModeMessaging},
		{"RMMAP-Prefetch", ModeRMMAPPrefetch},
		{"Storage(RDMA)", ModeStorageDrTM},
		{"DrTM", ModeStorageDrTM},
	} {
		got, err := ParseMode(tc.in)
		if err != nil {
			t.Errorf("ParseMode(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	_, err := ParseMode("rmmap-nope")
	if err == nil {
		t.Fatal("ParseMode accepted an unknown mode")
	}
	for _, m := range AllModes() {
		if !strings.Contains(err.Error(), m.String()) {
			t.Errorf("error %q does not list known mode %s", err, m)
		}
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeMessaging:     "messaging",
		ModeStoragePocket: "storage(pocket)",
		ModeStorageDrTM:   "storage(rdma)",
		ModeRMMAP:         "rmmap",
		ModeRMMAPPrefetch: "rmmap(prefetch)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
	if !ModeRMMAP.IsRMMAP() || !ModeRMMAPPrefetch.IsRMMAP() || ModeMessaging.IsRMMAP() {
		t.Error("IsRMMAP wrong")
	}
	if len(AllModes()) != 5 {
		t.Errorf("AllModes = %d", len(AllModes()))
	}
	if Mode(99).String() != "mode(?)" {
		t.Error("unknown mode string")
	}
}
