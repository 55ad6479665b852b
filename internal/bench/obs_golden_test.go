package bench

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rmmap/internal/obs"
	"rmmap/internal/platform"
)

// Golden-file tests pinning the observability artifacts of a seeded fig14
// run: the Chrome trace-event export and the canonical metrics snapshot
// must be byte-identical across reruns (CI additionally runs these with
// -count=2). Regenerate the goldens after an intentional cost-model or
// workload change with:
//
//	RMMAP_UPDATE_GOLDEN=1 go test ./internal/bench -run Golden

const goldenScale = 0.02

// fig14GoldenRun executes the WordCount cell of the fig14 grid (the
// smallest of the four evaluated workflows) under rmmap(prefetch) with
// tracing and metrics publishing on.
func fig14GoldenRun(t *testing.T) (platform.RunResult, *obs.Registry) {
	t.Helper()
	var builder WorkflowBuilder
	for _, w := range Workflows(goldenScale) {
		if w.Name == "WordCount" {
			builder = w
		}
	}
	if builder.Build == nil {
		t.Fatal("WordCount missing from the workflow registry")
	}
	reg := obs.NewRegistry()
	e, err := platform.NewEngine(builder.Build(), platform.ModeRMMAPPrefetch,
		platform.Options{Trace: true, Obs: reg}, benchCluster())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, reg
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("RMMAP_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with RMMAP_UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (%d vs %d bytes).\n"+
			"If the change is intentional, regenerate with RMMAP_UPDATE_GOLDEN=1.",
			name, len(got), len(want))
	}
}

func TestChromeTraceGoldenFig14(t *testing.T) {
	res, _ := fig14GoldenRun(t)
	if len(res.Trace) == 0 {
		t.Fatal("run produced no spans")
	}
	var buf bytes.Buffer
	if err := obs.ChromeTrace(&buf, platform.ExportSpans(res.Trace)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig14_wordcount_trace.json", buf.Bytes())

	// A second fresh engine must produce byte-identical output — the
	// determinism half of the acceptance criterion, independent of the
	// golden file's freshness.
	res2, _ := fig14GoldenRun(t)
	var buf2 bytes.Buffer
	if err := obs.ChromeTrace(&buf2, platform.ExportSpans(res2.Trace)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two seeded runs exported different chrome traces")
	}
}

func TestMetricsSnapshotGoldenFig14(t *testing.T) {
	_, reg := fig14GoldenRun(t)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig14_wordcount_metrics.json", buf.Bytes())
}

func TestProfileGoldenFig14(t *testing.T) {
	res, _ := fig14GoldenRun(t)
	var buf bytes.Buffer
	if err := platform.BuildProfile("WordCount", res.Trace).WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig14_wordcount_profile.folded", buf.Bytes())
}

// TestFig14JSONHasBreakdown pins the acceptance criterion on
// BENCH_fig14.json: every row carries a nonempty per-category virtual-time
// breakdown consistent with its latency, and the report carries only
// virtual-time sections.
func TestFig14JSONHasBreakdown(t *testing.T) {
	rep, err := CollectFig14(goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rep.Rows {
		if len(row.BreakdownNs) == 0 {
			t.Errorf("%s/%s: empty simtime breakdown", row.Workflow, row.Mode)
			continue
		}
		var total int64
		for cat, ns := range row.BreakdownNs {
			if ns <= 0 {
				t.Errorf("%s/%s: category %s has non-positive total %d", row.Workflow, row.Mode, cat, ns)
			}
			total += ns
		}
		// Total work is at least the critical-path latency (parallelism
		// makes it larger, never smaller).
		if total < row.LatencyNs {
			t.Errorf("%s/%s: breakdown total %d < latency %d", row.Workflow, row.Mode, total, row.LatencyNs)
		}
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(raw, &sections); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(sections))
	if want := []string{"failover", "rows", "scale", "topology_cliff"}; !slices.Equal(keys, want) {
		t.Errorf("BENCH_fig14.json sections = %v, want %v", keys, want)
	}
}
