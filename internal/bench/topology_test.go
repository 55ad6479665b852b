package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rmmap/internal/obs"
	"rmmap/internal/platform"
	"rmmap/internal/platformbuilder"
	"rmmap/internal/simtime"
)

// TestTopologyCliff pins the abl-topology acceptance criteria: cross-rack
// placement on the spine-leaf recipe costs at least 2x the intra-rack
// datapath, rack-local placement eliminates cross-rack traffic, and the
// whole grid is byte-identical at any worker count.
func TestTopologyCliff(t *testing.T) {
	ref := tiny(t, "abl-topology")
	refJSON, _ := json.Marshal(ref)
	old := Workers
	defer func() { Workers = old }()
	for _, workers := range []int{1, 8} {
		Workers = workers
		res, err := runAblTopology(tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(res); !bytes.Equal(refJSON, got) {
			t.Errorf("topology grid differs between workers=%d and the default\n--- workers=%d:\n%s\n--- default:\n%s",
				workers, workers, got, refJSON)
		}
	}

	type leg struct {
		datapath, spine simtime.Duration
		crossOps        int64
	}
	byPlacement := make(map[string]leg)
	tbl := ref[0]
	for i := range tbl.Rows {
		if p, ok := strings.CutPrefix(tbl.Cell(i, "topology/placement").(string), "spine-leaf/"); ok {
			byPlacement[p] = leg{
				datapath: tbl.Cell(i, "datapath").(simtime.Duration),
				spine:    tbl.Cell(i, "spine").(simtime.Duration),
				crossOps: tbl.Cell(i, "cross-ops").(int64),
			}
		}
	}
	intra, cross := byPlacement["intra-rack"], byPlacement["cross-rack"]
	spread, local := byPlacement["spread"], byPlacement["rack-local"]
	if ratio := float64(cross.datapath) / float64(intra.datapath); !(ratio >= 2) {
		t.Errorf("spine-leaf cross/intra datapath ratio = %.2f, want >= 2", ratio)
	}
	if cross.crossOps == 0 || cross.spine == 0 {
		t.Errorf("cross-rack leg recorded no spine traffic: %+v", cross)
	}
	if spread.crossOps == 0 {
		t.Errorf("spread placement crossed no racks — the placement-policy comparison is vacuous")
	}
	if local.crossOps != 0 {
		t.Errorf("rack-local placement still crossed racks %d times", local.crossOps)
	}
	if local.datapath >= spread.datapath {
		t.Errorf("rack-local datapath %v not below spread %v", local.datapath, spread.datapath)
	}
}

// runFlatCell runs one WordCount fig14 cell on the given cluster and
// serializes its artifacts.
func runFlatCell(t *testing.T, cl *platform.Cluster, workers int) runArtifacts {
	t.Helper()
	var builder WorkflowBuilder
	for _, w := range Workflows(goldenScale) {
		if w.Name == "WordCount" {
			builder = w
		}
	}
	reg := obs.NewRegistry()
	e, err := platform.NewEngineOn(cl, builder.Build(), platform.ModeRMMAPPrefetch,
		platform.Options{Trace: true, Obs: reg, Workers: workers}, benchCluster().Pods)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return runArtifacts{
		spans:   spanJSONL(t, res.Trace),
		metrics: metrics.Bytes(),
		row:     fig14RowBytes(t, builder.Name, platform.ModeRMMAPPrefetch, e, res),
	}
}

// TestFlatBuilderEquivalence proves the flat-equivalence acceptance
// criterion: a one-rack platformbuilder build must reproduce the classic
// platform.NewCluster run byte for byte — spans, metrics, and fig14 rows —
// at Workers 1 and 8.
func TestFlatBuilderEquivalence(t *testing.T) {
	machines := benchCluster().Machines
	for _, workers := range []int{1, 8} {
		classic := runFlatCell(t, platform.NewCluster(machines, defaultCM()), workers)
		built, err := platformbuilder.Flat(machines).Build()
		if err != nil {
			t.Fatal(err)
		}
		fromBuilder := runFlatCell(t, built, workers)
		if !bytes.Equal(classic.spans, fromBuilder.spans) {
			t.Errorf("workers=%d: builder spans differ from classic cluster", workers)
		}
		if !bytes.Equal(classic.metrics, fromBuilder.metrics) {
			t.Errorf("workers=%d: builder metrics differ from classic cluster\n--- classic:\n%s\n--- builder:\n%s",
				workers, classic.metrics, fromBuilder.metrics)
		}
		if !bytes.Equal(classic.row, fromBuilder.row) {
			t.Errorf("workers=%d: builder fig14 row differs from classic cluster\n--- classic:\n%s\n--- builder:\n%s",
				workers, classic.row, fromBuilder.row)
		}
	}
}

// runTopologyDeterminismCell runs a pinned cross-rack fan-out on the
// straggler recipe (two racks, machine 3 a 3x straggler) with shared-link
// contention in play, at one worker count.
func runTopologyDeterminismCell(t *testing.T, workers int) runArtifacts {
	t.Helper()
	b, err := platformbuilder.Recipe("straggler", 4)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reg := obs.NewRegistry()
	e, err := platform.NewEngineOn(cl, topoFanout(0, 3, 8, scaleInt(65536, goldenScale)),
		platform.ModeRMMAP, platform.Options{Trace: true, Obs: reg, Workers: workers}, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cl.Topo.CrossRackOps() == 0 {
		t.Fatal("cross-rack fan-out recorded no cross-rack operations")
	}
	var metrics bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return runArtifacts{
		spans:   spanJSONL(t, res.Trace),
		metrics: metrics.Bytes(),
		row:     fig14RowBytes(t, "fanout-straggler", platform.ModeRMMAP, e, res),
	}
}

// TestDifferentialDeterminismTopology is the multi-rack leg of the suite:
// a cross-rack fan-out onto a straggler machine exercises hop charging,
// straggler stretching, and the deferred link-occupancy journal (queueing
// waits replayed in canonical commit order). Artifacts must stay
// byte-identical at every worker count.
func TestDifferentialDeterminismTopology(t *testing.T) {
	ref := runTopologyDeterminismCell(t, 1)
	if len(ref.spans) == 0 {
		t.Fatal("reference run produced no spans")
	}
	for _, w := range diffWorkers[1:] {
		diffArtifacts(t, "fanout-straggler", ref, runTopologyDeterminismCell(t, w), w)
	}
}
