package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func smokeConfig(dir string) config {
	return config{
		workload: "WordCount", mode: "rmmap-prefetch",
		scale: 0.02, requests: 1, machines: 4, pods: 8,
		metricsPath: filepath.Join(dir, "metrics.json"),
		chromePath:  filepath.Join(dir, "trace.json"),
		jsonlPath:   filepath.Join(dir, "spans.jsonl"),
		profilePath: filepath.Join(dir, "profile.folded"),
	}
}

func TestSmokeArtifacts(t *testing.T) {
	dir := t.TempDir()
	cfg := smokeConfig(dir)
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	// Chrome trace parses and has events.
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	mustUnmarshalFile(t, cfg.chromePath, &trace)
	if len(trace.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}
	// Metrics snapshot parses and carries canonical names.
	var metrics struct {
		Counters []struct {
			Name string `json:"name"`
		} `json:"counters"`
	}
	mustUnmarshalFile(t, cfg.metricsPath, &metrics)
	if len(metrics.Counters) == 0 {
		t.Error("metrics snapshot has no counters")
	}
	// Profile is nonempty folded lines "stack weight".
	prof, err := os.ReadFile(cfg.profilePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(prof)), "\n")
	if len(lines) == 0 || !strings.Contains(lines[0], " ") {
		t.Errorf("profile not folded stacks:\n%s", prof)
	}
	// JSONL: every line parses.
	jsonl, err := os.ReadFile(cfg.jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(jsonl)), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("jsonl line %d: %v", i, err)
		}
	}
}

func TestSmokeDeterministic(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	var out bytes.Buffer
	if err := run(smokeConfig(a), &out); err != nil {
		t.Fatal(err)
	}
	if err := run(smokeConfig(b), &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"metrics.json", "trace.json", "spans.jsonl", "profile.folded"} {
		x, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs between two identical runs", name)
		}
	}
}

func TestListAndBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(config{list: true}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"WordCount", "rmmap(prefetch)", "messaging"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
	if err := run(config{workload: "nope", mode: "rmmap", scale: 1}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(config{workload: "FINRA", mode: "nope", scale: 1}, &out); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run(config{workload: "FINRA", mode: "rmmap", scale: 7}, &out); err == nil {
		t.Error("out-of-range scale accepted")
	}
}

func TestParseModeAliases(t *testing.T) {
	for in, want := range map[string]string{
		"messaging":       "messaging",
		"storage-pocket":  "storage(pocket)",
		"storage-rdma":    "storage(rdma)",
		"rmmap-prefetch":  "rmmap(prefetch)",
		"rmmap(prefetch)": "rmmap(prefetch)",
	} {
		m, err := parseMode(in)
		if err != nil {
			t.Errorf("parseMode(%q): %v", in, err)
			continue
		}
		if m.String() != want {
			t.Errorf("parseMode(%q) = %s, want %s", in, m, want)
		}
	}
}

func mustUnmarshalFile(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
