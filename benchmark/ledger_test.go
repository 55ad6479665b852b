package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"rmmap/internal/objrt"
	"rmmap/internal/workloads"
)

// TestMain lets the test binary stand in for the ledger: the parent
// re-executes os.Executable() for every child, which under `go test` is
// this binary. Children inherit the variable that says so.
func TestMain(m *testing.M) {
	const asMain = "PERF_LEDGER_AS_MAIN"
	if os.Getenv(asMain) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Setenv(asMain, "1")
	os.Exit(m.Run())
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(values, n=4) for each input.
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
		{[]float64{4, 1, 3, 2, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99); got != 10 {
		t.Errorf("nearest-rank p99 of 1..10 = %v, want 10", got)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %v, want 2", got)
	}
}

func TestVerdicts(t *testing.T) {
	s := func(q1, med, q3 float64) summary { return summary{Median: med, Q1: q1, Q3: q3, N: 5} }
	for _, tc := range []struct {
		name         string
		a, b         summary
		lower, exact bool
		bound, floor float64
		want         string
	}{
		{"within", s(9.9, 10, 10.1), s(10.2, 10.3, 10.4), true, false, 0.10, 0, verdictWithin},
		{"worse", s(9.9, 10, 10.1), s(11.1, 11.2, 11.3), true, false, 0.10, 0, verdictWorse},
		{"better", s(9.9, 10, 10.1), s(8.9, 9, 9.1), true, false, 0.10, 0, verdictBetter},
		{"higher is better: a drop is worse", s(99, 100, 101), s(84, 85, 86), false, false, 0.10, 0, verdictWorse},
		{"higher is better: a rise is better", s(99, 100, 101), s(109, 110, 111), false, false, 0.10, 0, verdictBetter},
		{"spread wider than the bound", s(9, 10, 11.5), s(10.2, 10.3, 10.4), true, false, 0.10, 0, verdictUnresolved},
		{"the floor widens the allowance", s(0.004, 0.005, 0.006), s(0.05, 0.06, 0.07), true, false, 0.25, 0.1, verdictWithin},
		{"past the floor", s(0.004, 0.005, 0.006), s(0.15, 0.16, 0.17), true, false, 0.25, 0.1, verdictWorse},
		{"virtual and identical", s(5, 5, 5), s(5, 5, 5), true, true, 0.05, 0, verdictWithin},
		{"virtual and lower is still a change", s(5, 5, 5), s(4.999, 4.999, 4.999), true, true, 0.05, 0, verdictWorse},
	} {
		if got := judge(tc.a, tc.b, tc.lower, tc.exact, tc.bound, tc.floor); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestManifestDeclaresWhatTheLedgerEmits holds BENCHMARK.json and the
// ledger's own tables equal, and both inside the contract's limits.
func TestManifestDeclaresWhatTheLedgerEmits(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, declared []manifestMetric, emitted []metric, limit int, bounded bool) {
		if len(declared) != len(emitted) || len(declared) > limit {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the ledger emits %d, the limit is %d", kind, len(declared), len(emitted), limit)
		}
		for i, d := range declared {
			e := emitted[i]
			if d.Name != e.Name || d.Unit != e.Unit || d.Better != e.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the ledger %+v", kind, i, d, e)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s: %q (%q) is malformed or used twice", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s has direction %q", kind, d.Name, d.Better)
			}
			switch {
			case !bounded && d.Bound != nil:
				t.Errorf("%s: %s carries a bound", kind, d.Name)
			case bounded && (d.Bound == nil || *d.Bound != e.Bound || e.Bound <= 0 || e.Bound > 0.25):
				t.Errorf("%s: %s bound %v, the ledger's is %v", kind, d.Name, d.Bound, e.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16, true)
	check("per_layer", m.PerLayer, perLayer(), 128, false)
	if setup := metricByName(endToEnd)["setup_s"]; setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s is %+v", setup)
	}

	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the ledger %d", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range m.Workloads {
		def := workloadDefs[i]
		if w.Name != def.name || w.Why != def.why {
			t.Errorf("workload %d: BENCHMARK.json has %q %q, the ledger %q %q", i, w.Name, w.Why, def.name, def.why)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %q: bad name, or a reason that is not one line of at most 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(m.Paths, want) {
		t.Errorf("paths %v, want %v", m.Paths, want)
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(m.Command, want) {
		t.Errorf("command %v, want %v", m.Command, want)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

// TestPaperConfigsAtDefaultSeed: at seed 1 and full scale the workflows
// are the repository's calibrated defaults, so wf-rmmap's virtual results
// are the Fig 14 numbers.
func TestPaperConfigsAtDefaultSeed(t *testing.T) {
	want := paperConfigs{workloads.DefaultFINRA(), workloads.DefaultMLTrain(), workloads.DefaultMLPredict(), workloads.DefaultWordCount()}
	if p := paperWorkflows(1.0, defaultSeed); p != want {
		t.Errorf("paperWorkflows(1, %d) = %+v, want the defaults %+v", defaultSeed, p, want)
	}
	q := paperWorkflows(0.15, defaultSeed)
	if q.finra.Rows != 6000 || q.finra.Rules != 157 || q.mlt.Images != 300 || q.mlp.Images != 300 || q.wc.BookBytes != 314572 {
		t.Errorf("paperWorkflows(0.15, %d) sizes are %+v", defaultSeed, q)
	}
}

// TestQuickSmoke runs all four workloads and the layerwalk at smoke size,
// traced, and checks what came out: exit code, every declared name and no
// other, CPU shares that partition the samples, and trace files.
func TestQuickSmoke(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-trace", "1", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	all, err := readResults(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Problems) != 0 {
		t.Errorf("problems: %v", all.Problems)
	}
	sameNames := func(what string, got map[string]summary, want ...[]metric) {
		names := map[string]bool{}
		for _, list := range want {
			for _, m := range list {
				names[m.Name] = true
				s, ok := got[m.Name]
				if !ok {
					t.Errorf("%s: %s missing", what, m.Name)
				} else if s.Unit != m.Unit || s.N < 1 || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
					t.Errorf("%s: %s = %+v", what, m.Name, s)
				}
			}
		}
		for name := range got {
			if !names[name] {
				t.Errorf("%s: %s is not declared", what, name)
			}
		}
	}
	for _, def := range workloadDefs {
		res := all.Workloads[def.name]
		if res == nil {
			t.Fatalf("%s: no results", def.name)
		}
		sameNames(def.name, res.EndToEnd, endToEnd)
		sameNames(def.name, res.PerLayer, countMetrics, shareMetrics, hostMetrics)
		for _, m := range endToEnd {
			if res.EndToEnd[m.Name].Median <= 0 {
				t.Errorf("%s: %s is %v; end-to-end metrics are never 0", def.name, m.Name, res.EndToEnd[m.Name].Median)
			}
		}
		share := 0.0
		for _, m := range shareMetrics {
			share += res.PerLayer[m.Name].Median
		}
		if math.Abs(share-100) > 1 {
			t.Errorf("%s: cpu_share.* add up to %.2f", def.name, share)
		}
		if res.OpsAttempted < 1 || len(res.Outputs) == 0 {
			t.Errorf("%s: %d operations, %d outputs", def.name, res.OpsAttempted, len(res.Outputs))
		}
		if def.name != "soak-curve" && res.OpsFailed != 0 {
			t.Errorf("%s: %d operations failed", def.name, res.OpsFailed)
		}
	}
	sameNames("layerwalk", all.Layerwalk, layerwalkMetrics)

	for _, name := range append(workloadNames(), layerwalkName) {
		data, err := os.ReadFile(filepath.Join(out, "trace_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("trace_%s.json: %v", name, err)
		}
		if len(tf.Spans) < 5 {
			t.Errorf("trace_%s.json has %d spans", name, len(tf.Spans))
		}
		for _, s := range tf.Spans {
			if s.SelfNs < 0 || s.EndNs < s.StartNs || s.Parent >= s.ID {
				t.Errorf("trace_%s.json: bad span %+v", name, s)
				break
			}
		}
	}

	// The driver's line for a traced run carries every per-layer metric.
	cfg := config{trace: true, workloads: workloadDefs[:1]}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(driverLine(cfg, all)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 8 || line.Failed != 0 || len(line.Metrics) != len(perLayer()) {
		t.Errorf("driver line: %+v", line)
	}
	for _, m := range perLayer() {
		if v, ok := line.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("driver line: %s = %+v", m.Name, v)
		}
	}
}

// TestDriverLine runs the acceptance driver's command line for an untraced
// run and reads its last line the way the driver does.
func TestDriverLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "xfer-fanout", "--seed", "7", "--seconds", "0.05", "--trace", "0", "-quick", "-out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("last line has keys %v", sortedKeys(line))
	}
	var metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if v := metrics[m.Name]; v.Unit != m.Unit || v.Value <= 0 {
			t.Errorf("%s = %+v", m.Name, v)
		}
	}
	if string(line["correct"]) != "true" || string(line["failed"]) != "0" || string(line["attempted"]) != "8" {
		t.Errorf("correct %s attempted %s failed %s", line["correct"], line["attempted"], line["failed"])
	}
	if !strings.Contains(stderr.String(), "rep 3") {
		t.Errorf("a -seconds run makes at least %d repetitions:\n%s", minBudgetReps, stderr.String())
	}
}

// TestWorkersDoNotMoveVirtualResults: xfer-fanout is the workload whose
// engine runs two workers; one worker must produce the same virtual
// metrics, counts and outputs.
func TestWorkersDoNotMoveVirtualResults(t *testing.T) {
	child := func(workers string) childReport {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-child", "-quick", "-workload", "xfer-fanout", "-workers", workers}, &stdout, &stderr); code != 0 {
			t.Fatalf("workers=%s: exit code %d\n%s", workers, code, stderr.String())
		}
		var rep childReport
		if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Problems) != 0 {
			t.Errorf("workers=%s: %v", workers, rep.Problems)
		}
		return rep
	}
	if diff := sameVirtual("workers 2 vs 1", child("1"), child("2")); len(diff) != 0 {
		t.Error(strings.Join(diff, "\n"))
	}
}

// TestCompare drives -compare over files: an A/A passes, a slower
// candidate and a moved count both fail.
func TestCompare(t *testing.T) {
	e2e := func(wall float64) map[string]summary {
		out := map[string]summary{}
		for _, m := range endToEnd {
			out[m.Name] = summary{Unit: m.Unit, Median: 1, Q1: 1, Q3: 1, N: 5}
		}
		out["wall_s"] = summary{Unit: "s", Median: wall, Q1: wall * 0.99, Q3: wall * 1.01, N: 5}
		return out
	}
	mk := func(wall, hits float64) results {
		r := results{Stamp: stamp{Seed: 1}, Workloads: map[string]*workloadResult{}}
		for _, def := range workloadDefs {
			r.Workloads[def.name] = &workloadResult{OpsAttempted: 8, EndToEnd: e2e(wall),
				PerLayer: map[string]summary{"kernel.cache_hits": {Unit: "count", Median: hits, N: 5}}}
		}
		return r
	}
	dir := t.TempDir()
	write := func(name string, r results) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(5, 100))
	for _, tc := range []struct {
		name string
		cand results
		code int
		want string
	}{
		{"aa", mk(5.1, 100), 0, "0 worse, 0 unresolved; 0 count mismatches"},
		{"slower", mk(5.8, 100), 1, verdictWorse},
		{"moved-count", mk(5, 101), 1, "MISMATCH: wf-serde: kernel.cache_hits 101, base 100"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", base, write(tc.name+".json", tc.cand)}, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("%s: exit code %d, want %d, and %q in:\n%s%s", tc.name, code, tc.code, tc.want, stdout.String(), stderr.String())
		}
	}
	other := mk(5, 100)
	other.Stamp.Seed = 2
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", base, write("seed2.json", other)}, &stdout, &stderr); code != 2 {
		t.Errorf("comparing different seeds: exit code %d, want 2", code)
	}
}

// TestCPUShares profiles first-fit scans over a fragmented objrt heap and
// checks that the profile reader charges them to objrt.
func TestCPUShares(t *testing.T) {
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("cpuShares accepted garbage")
	}
	h := objrt.NewHeap(lwProdHeap, lwProdHeap+lwHeapSize)
	var odd []uint64
	for i := 0; i < 20000; i++ {
		a, err := h.Alloc(32)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			odd = append(odd, a)
		}
	}
	if err := h.FreeBatch(odd); err != nil {
		t.Fatal(err)
	}
	var profile bytes.Buffer
	if err := pprof.StartCPUProfile(&profile); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		if _, err := h.Alloc(48); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(profile.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if shares["cpu_share.objrt"] < 50 || math.Abs(total-100) > 0.01 || len(shares) != len(shareMetrics) {
		t.Errorf("shares %v (total %.2f), want objrt above 50", shares, total)
	}
}
