package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workflow under several modes at example scale")
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if first, _, _ := strings.Cut(out.String(), "\n"); first != "phase 1: ML training workflow (partition → 2×PCA → 8×train → merge)" {
		t.Fatalf("first line %q", first)
	}
}
