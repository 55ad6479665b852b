package platform

import (
	"bytes"
	"testing"

	"rmmap/internal/obs"
	"rmmap/internal/simtime"
)

// TestPublishRunMatchesMeter checks the canonical simtime counters add up
// to exactly what the run's Meter charged — the registry is an alternate
// view of the same charges, never a re-measurement.
func TestPublishRunMatchesMeter(t *testing.T) {
	res := runPipeline(t, ModeRMMAPPrefetch, Options{Trace: true})
	reg := obs.NewRegistry()
	PublishRun(reg, "pipeline", ModeRMMAPPrefetch.String(), res)
	snap := reg.Snapshot()

	got := map[string]int64{}
	for _, c := range snap.Counters {
		if c.Name != obs.MetricSimtimeNs || c.Labels["function"] != "" {
			continue
		}
		got[c.Labels["category"]] = c.Value
	}
	want := 0
	res.Meter.Each(func(cat simtime.Category, d simtime.Duration) {
		want++
		if got[cat.String()] != int64(d) {
			t.Errorf("category %v: registry %d, meter %d", cat, got[cat.String()], int64(d))
		}
	})
	if len(got) != want {
		t.Errorf("registry has %d run-level categories, meter has %d", len(got), want)
	}

	// Per-function series must sum to the run-level series.
	perFn := map[string]int64{}
	for _, c := range snap.Counters {
		if c.Name == obs.MetricSimtimeNs && c.Labels["function"] != "" {
			perFn[c.Labels["category"]] += c.Value
		}
	}
	for cat, v := range got {
		if perFn[cat] != v {
			t.Errorf("category %s: per-function sum %d != run total %d", cat, perFn[cat], v)
		}
	}

	// Canonical recovery/cache counters exist (at zero on a clean run).
	for _, name := range []string{
		obs.MetricRetries, obs.MetricFailovers, obs.MetricReexecutions,
		obs.MetricCacheHits, obs.MetricReadaheadPages, obs.MetricLeaseExpiries,
	} {
		found := false
		for _, c := range snap.Counters {
			if c.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("canonical counter %s missing from snapshot", name)
		}
	}
}

// TestPublishSequentialRunsDeltas: RunResult carries cluster-lifetime
// cumulative cache/replication/lease totals, and the registry accumulates
// across PublishRun calls — so over sequential requests the engine must
// publish per-request deltas. After N runs the registry total must equal
// the final cumulative value, not the sum of prefix sums.
func TestPublishSequentialRunsDeltas(t *testing.T) {
	reg := obs.NewRegistry()
	cl := NewCluster(2, simtime.DefaultCostModel())
	e, err := NewEngineOn(cl, cacheFanWorkflow(4, 2048), ModeRMMAP, Options{Obs: reg}, 12)
	if err != nil {
		t.Fatal(err)
	}
	var last RunResult
	for i := 0; i < 3; i++ {
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	if last.Cache.Hits == 0 || last.Cache.Misses == 0 {
		t.Fatalf("workload produced no cache traffic (hits=%d, misses=%d); the test needs some",
			last.Cache.Hits, last.Cache.Misses)
	}
	got := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		got[c.Name] += c.Value
	}
	for name, want := range map[string]int64{
		obs.MetricCacheHits:       last.Cache.Hits,
		obs.MetricCacheMisses:     last.Cache.Misses,
		obs.MetricCacheInserts:    last.Cache.Inserts,
		obs.MetricCacheEvictions:  last.Cache.Evictions,
		obs.MetricReadaheadPages:  last.Cache.ReadaheadPages,
		obs.MetricReplicatedBytes: last.ReplicatedBytes,
		obs.MetricLeaseExpiries:   int64(last.LeaseExpiries),
	} {
		if got[name] != want {
			t.Errorf("%s = %d, want cluster-cumulative %d", name, got[name], want)
		}
	}
}

// TestOptionsObsAutoPublish checks the engine publishes into Options.Obs at
// collection time without being asked again.
func TestOptionsObsAutoPublish(t *testing.T) {
	reg := obs.NewRegistry()
	res := runPipeline(t, ModeRMMAP, Options{Obs: reg})
	snap := reg.Snapshot()
	var runs, latencyHists int
	for _, c := range snap.Counters {
		if c.Name == obs.MetricRuns && c.Labels["outcome"] == "ok" {
			runs = int(c.Value)
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == obs.MetricRunLatencyNs {
			latencyHists++
			if h.Count != 1 {
				t.Errorf("latency histogram count = %d, want 1", h.Count)
			}
		}
	}
	if runs != 1 || latencyHists != 1 {
		t.Fatalf("auto-publish missing: runs=%d latency-histograms=%d", runs, latencyHists)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestExportSpansRoundTrip checks the platform→obs span conversion carries
// every field the chrome trace needs, in deterministic arg order.
func TestExportSpansRoundTrip(t *testing.T) {
	res := runPipeline(t, ModeRMMAPPrefetch, Options{Trace: true})
	if len(res.Trace) == 0 {
		t.Fatal("no spans")
	}
	exported := ExportSpans(res.Trace)
	if len(exported) != len(res.Trace) {
		t.Fatalf("exported %d spans, want %d", len(exported), len(res.Trace))
	}
	for i, es := range exported {
		ps := res.Trace[i]
		if es.Name != ps.Node || es.Pid != ps.Machine || es.Tid != ps.Pod {
			t.Errorf("span %d identity mismatch: %+v vs %+v", i, es, ps)
		}
		if es.Start != ps.Start || es.End != ps.End {
			t.Errorf("span %d times mismatch", i)
		}
		// Breakdown args must match the span's meter snapshot exactly.
		gotBreakdown := map[string]int64{}
		for _, a := range es.Args {
			if v, ok := a.Val.(int64); ok && len(a.Key) > 3 && a.Key[len(a.Key)-3:] == "_ns" {
				gotBreakdown[a.Key[:len(a.Key)-3]] = v
			}
		}
		for cat, d := range ps.Breakdown {
			if gotBreakdown[cat] != int64(d) {
				t.Errorf("span %d category %s: arg %d, breakdown %d", i, cat, gotBreakdown[cat], int64(d))
			}
		}
	}
	// The export must be renderable and byte-stable.
	var a, b bytes.Buffer
	if err := obs.ChromeTrace(&a, exported); err != nil {
		t.Fatal(err)
	}
	if err := obs.ChromeTrace(&b, ExportSpans(res.Trace)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chrome trace of the same run differs between exports")
	}
}

// TestBuildProfileConservation: the folded profile's total equals the sum
// of every span's breakdown — no charge appears or disappears in
// aggregation.
func TestBuildProfileConservation(t *testing.T) {
	res := runPipeline(t, ModeRMMAPPrefetch, Options{Trace: true})
	prof := BuildProfile("pipeline", res.Trace)
	var want simtime.Duration
	for _, s := range res.Trace {
		for _, d := range s.Breakdown {
			want += d
		}
	}
	if prof.Total() != want {
		t.Fatalf("profile total %v, spans total %v", prof.Total(), want)
	}
	for _, e := range prof {
		if e.Path == "" {
			t.Errorf("profile entry with empty path: %+v", e)
		}
	}
}
