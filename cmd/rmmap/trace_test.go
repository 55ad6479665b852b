package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeArgs is a small trace run that writes every artifact into dir.
func smokeArgs(dir string) []string {
	return []string{
		"-workload", "WordCount", "-mode", "rmmap-prefetch",
		"-scale", "0.02", "-requests", "1", "-machines", "4", "-pods", "8",
		"-metrics", filepath.Join(dir, "metrics.json"),
		"-chrome-trace", filepath.Join(dir, "trace.json"),
		"-jsonl", filepath.Join(dir, "spans.jsonl"),
		"-profile", filepath.Join(dir, "profile.folded"),
	}
}

func mustTrace(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := runTrace(args, &out, &errOut); code != 0 {
		t.Fatalf("trace %v: exit %d\n%s%s", args, code, out.String(), errOut.String())
	}
	return out.String()
}

func TestSmokeArtifacts(t *testing.T) {
	dir := t.TempDir()
	mustTrace(t, smokeArgs(dir)...)
	// Chrome trace parses and has events.
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	mustUnmarshalFile(t, filepath.Join(dir, "trace.json"), &trace)
	if len(trace.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}
	// Metrics snapshot parses and carries canonical names.
	var metrics struct {
		Counters []struct {
			Name string `json:"name"`
		} `json:"counters"`
	}
	mustUnmarshalFile(t, filepath.Join(dir, "metrics.json"), &metrics)
	if len(metrics.Counters) == 0 {
		t.Error("metrics snapshot has no counters")
	}
	// Profile is nonempty folded lines "stack weight".
	prof, err := os.ReadFile(filepath.Join(dir, "profile.folded"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(prof)), "\n")
	if len(lines) == 0 || !strings.Contains(lines[0], " ") {
		t.Errorf("profile not folded stacks:\n%s", prof)
	}
	// JSONL: every line parses.
	jsonl, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
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
	mustTrace(t, smokeArgs(a)...)
	mustTrace(t, smokeArgs(b)...)
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
	out := mustTrace(t, "-list")
	for _, want := range []string{"WordCount", "rmmap(prefetch)", "messaging"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
	for _, args := range [][]string{
		{"-workload", "nope", "-mode", "rmmap"},
		{"-workload", "FINRA", "-mode", "nope"},
		{"-workload", "FINRA", "-mode", "rmmap", "-scale", "7"},
	} {
		var stdout, stderr bytes.Buffer
		if code := runTrace(args, &stdout, &stderr); code != 1 {
			t.Errorf("trace %v: exit %d, want 1", args, code)
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
