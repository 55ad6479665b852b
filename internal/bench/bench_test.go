package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"rmmap/internal/simtime"
)

func TestRegistryComplete(t *testing.T) {
	// Every figure of §5 plus §2.3's motivation figures and the four
	// ablations must be registered.
	want := []string{
		"fig3", "fig5", "fig11a", "fig11b", "fig12", "fig13a", "fig13b",
		"fig13c", "fig13d", "fig14", "fig15", "fig16a", "fig16b",
		"abl-prefetch", "abl-batch", "abl-conn", "abl-scope",
		"abl-fork", "abl-forward", "abl-adaptive", "abl-compress", "abl-arrow",
		"abl-fanout", "abl-failover", "abl-topology",
	}
	for _, id := range want {
		e, ok := Find(id)
		if !ok {
			t.Errorf("experiment %q missing", id)
			continue
		}
		if e.Title == "" || e.Expect == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete: %+v", id, e)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if len(IDs()) != len(want) {
		t.Errorf("IDs() returned %d", len(IDs()))
	}
}

func TestFindUnknown(t *testing.T) {
	if _, ok := Find("fig99"); ok {
		t.Error("found unregistered experiment")
	}
}

// tinyScale is the scale TestExperimentsRunTiny runs every experiment at.
const tinyScale = 0.02

// tinyResults memoizes each experiment's Result at tinyScale, so tests that
// need an experiment's values read them instead of running it again.
var tinyResults = map[string]Result{}

// tiny returns experiment id's Result at tinyScale, running the experiment
// only if no earlier test has.
func tiny(t *testing.T, id string) Result {
	t.Helper()
	if res, ok := tinyResults[id]; ok {
		return res
	}
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res, err := e.Run(tinyScale)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	tinyResults[id] = res
	return res
}

// TestExperimentsRunTiny executes each experiment at a tiny scale and
// checks it returns tables with rows, without error. fig12 is covered at a
// slightly larger granularity in the benchmarks (it needs enough requests
// to be meaningful) and is skipped under -short.
func TestExperimentsRunTiny(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "fig12" && testing.Short() {
				t.Skip("fig12 runs thousands of requests; skipped under -short")
			}
			res := tiny(t, e.ID)
			if len(res) == 0 {
				t.Fatalf("%s returned no tables", e.ID)
			}
			for _, tbl := range res {
				if len(tbl.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, tbl.Header)
				}
			}
		})
	}
}

// TestReportJSON encodes every experiment's tiny-scale Result into one
// Report and decodes it back: the experiment IDs come back in run order,
// every row has one cell per header column, every cell is one of the
// declared kinds, and Durations are integer nanoseconds.
func TestReportJSON(t *testing.T) {
	rep := Report{Scale: tinyScale, Topology: "flat"}
	var ids []string
	for _, e := range All() {
		if e.ID == "fig12" && testing.Short() {
			continue
		}
		ids = append(ids, e.ID)
		rep.Experiments = append(rep.Experiments, ReportRun{ID: e.ID, Tables: tiny(t, e.ID)})
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Experiments []struct {
			ID     string
			Tables []struct {
				Header []string
				Rows   [][]json.RawMessage
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i, ex := range back.Experiments {
		got = append(got, ex.ID)
		if i >= len(rep.Experiments) || len(ex.Tables) != len(rep.Experiments[i].Tables) {
			t.Fatalf("%s: tables did not round-trip", ex.ID)
		}
		for j, tbl := range ex.Tables {
			orig := rep.Experiments[i].Tables[j]
			for r, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("%s: row %d has %d cells for %d columns", ex.ID, r, len(row), len(tbl.Header))
					continue
				}
				for c, raw := range row {
					if msg := cellJSONMismatch(orig.Rows[r][c], string(raw)); msg != "" {
						t.Errorf("%s: row %d column %q: %s", ex.ID, r, tbl.Header[c], msg)
					}
				}
			}
		}
	}
	if !slices.Equal(got, ids) {
		t.Errorf("report experiments = %v, want %v", got, ids)
	}
}

// cellJSONMismatch says how raw is not the encoding of cell, or "".
func cellJSONMismatch(cell any, raw string) string {
	var want string
	switch v := cell.(type) {
	case simtime.Duration:
		want = strconv.FormatInt(int64(v), 10)
	case int, int64:
		want = fmt.Sprint(v)
	case string:
		b, _ := json.Marshal(v)
		want = string(b)
	case Percent:
		return ratioJSONMismatch(float64(v), raw)
	case Multiplier:
		return ratioJSONMismatch(float64(v), raw)
	default:
		return fmt.Sprintf("cell %v has type %T, not a Result cell kind", cell, cell)
	}
	if raw != want {
		return fmt.Sprintf("%v encodes as %s, want %s", cell, raw, want)
	}
	return ""
}

// ratioJSONMismatch checks a Percent or Multiplier's encoding: a number,
// or null when it is not finite.
func ratioJSONMismatch(f float64, raw string) string {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if raw != "null" {
			return fmt.Sprintf("non-finite %v encodes as %s, want null", f, raw)
		}
		return ""
	}
	if got, err := strconv.ParseFloat(raw, 64); err != nil || got != f {
		return fmt.Sprintf("%v encodes as %s", f, raw)
	}
	return ""
}

func TestMicroRigTransferMatchesApproaches(t *testing.T) {
	// A direct check of the Fig 11 rig: same object, five approaches,
	// stage charges land in the right buckets.
	rig, err := newMicroRig(defaultCM())
	if err != nil {
		t.Fatal(err)
	}
	root, err := rig.ProdRT.NewIntList(make([]int64, 500))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := rig.transfer(root, apMessaging)
	if err != nil {
		t.Fatal(err)
	}
	if msg.T == 0 || msg.N == 0 || msg.R == 0 || msg.Wire == 0 {
		t.Errorf("messaging stages: %+v", msg)
	}
	rig2, err := newMicroRig(defaultCM())
	if err != nil {
		t.Fatal(err)
	}
	root2, err := rig2.ProdRT.NewIntList(make([]int64, 500))
	if err != nil {
		t.Fatal(err)
	}
	rm, err := rig2.transfer(root2, apRMMAP)
	if err != nil {
		t.Fatal(err)
	}
	if rm.R != 0 {
		t.Errorf("rmmap reconstructed: %+v", rm)
	}
	if rm.Wire != 0 {
		t.Errorf("rmmap moved wire bytes: %+v", rm)
	}
	if rm.Faults == 0 {
		t.Errorf("rmmap no faults: %+v", rm)
	}
	if rm.E2E() >= msg.E2E() {
		t.Errorf("rmmap (%v) not faster than messaging (%v)", rm.E2E(), msg.E2E())
	}
}

func TestChecksumCoversAllTypes(t *testing.T) {
	rig, err := newMicroRig(defaultCM())
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range microTypes(0.01) {
		root, err := typ.Build(rig.ProdRT)
		if err != nil {
			t.Fatalf("%s: %v", typ.Name, err)
		}
		if err := checksum(root); err != nil {
			t.Errorf("checksum(%s): %v", typ.Name, err)
		}
	}
}
