package bench

import (
	"bytes"
	"os"
	"path/filepath"
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
