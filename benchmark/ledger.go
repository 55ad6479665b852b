package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// config is one invocation of the ledger.
type config struct {
	seed      uint64
	reps      int
	seconds   float64 // > 0: repeat until this much timed region has run
	trace     bool
	quick     bool
	out       string
	workloads []workloadDef
	// workers overrides every workload's engine worker count (0 = keep);
	// the determinism test runs xfer-fanout at 1 and at 2.
	workers int
}

const (
	defaultSeed = 1
	// minBudgetReps is the fewest repetitions a -seconds run makes: three
	// cold processes are what a median and its quartiles need.
	minBudgetReps = 3
	// childProcs caps the busy threads of a child. Children run one at a
	// time, so the whole load is one process with at most two of them.
	childProcs = 2
)

// stamp says where and from what a set of results was measured.
type stamp struct {
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick,omitempty"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	MeasuredAt string `json:"measured_at"`
}

// workloadResult is one workload's row group in a results file.
type workloadResult struct {
	OpsAttempted int `json:"ops_attempted"`
	OpsFailed    int `json:"ops_failed"`
	// ExpectedFailures is the part of OpsFailed the workload provokes on
	// purpose: requests shed or expired at soak-curve's past-capacity point.
	ExpectedFailures int                `json:"ops_failed_expected"`
	EndToEnd         map[string]summary `json:"end_to_end"`
	PerLayer         map[string]summary `json:"per_layer"`
	Outputs          []string           `json:"outputs"`
}

// results is the schema of results/*.json and of <out>/results.json.
type results struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Layerwalk map[string]summary         `json:"layerwalk,omitempty"`
	Problems  []string                   `json:"problems,omitempty"`
}

func childGOMAXPROCS() int { return min(runtime.NumCPU(), childProcs) }

func makeStamp(cfg config) stamp {
	st := stamp{Commit: "unknown", Seed: cfg.seed, Quick: cfg.quick, NProc: runtime.NumCPU(),
		GOMAXPROCS: childGOMAXPROCS(), GoVersion: runtime.Version(), CPUModel: "unknown",
		MeasuredAt: time.Now().UTC().Format(time.RFC3339)}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return st
}

// spawn runs one child to completion and returns its report and max RSS.
func spawn(cfg config, workload string, traced bool) (childReport, float64, error) {
	var rep childReport
	self, err := os.Executable()
	if err != nil {
		return rep, 0, err
	}
	args := []string{"-child", "-workload", workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-out", cfg.out, "-workers", strconv.Itoa(cfg.workers),
		"-spawned-at", strconv.FormatInt(time.Now().UnixNano(), 10)}
	if cfg.quick {
		args = append(args, "-quick")
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childGOMAXPROCS()), "GOGC=100")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, 0, fmt.Errorf("%s child: %w", workload, err)
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, 0, fmt.Errorf("%s child: bad report: %w", workload, err)
	}
	rssMB := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, rssMB, nil
}

// sameVirtual lists how b's seed-determined results differ from a's.
func sameVirtual(what string, a, b childReport) []string {
	var out []string
	diff := func(field string, x, y any) {
		if !reflect.DeepEqual(x, y) {
			out = append(out, fmt.Sprintf("%s: %s differs: %v vs %v", what, field, x, y))
		}
	}
	diff("ops", [2]int{a.OpsAttempted, a.OpsFailed}, [2]int{b.OpsAttempted, b.OpsFailed})
	diff("virtual metrics", a.Virtual, b.Virtual)
	diff("counts", a.Counts, b.Counts)
	diff("outputs", a.Outputs, b.Outputs)
	return out
}

// measure runs one workload's repetitions, and the traced one if asked.
func measure(cfg config, def workloadDef, progress io.Writer) (*workloadResult, []string, error) {
	var reps []childReport
	samples := map[string][]float64{}
	var problems []string
	var timed float64
	for i := 0; ; i++ {
		if cfg.seconds > 0 {
			if i >= minBudgetReps && timed >= cfg.seconds {
				break
			}
		} else if i >= cfg.reps {
			break
		}
		rep, rss, err := spawn(cfg, def.name, false)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(progress, "%s rep %d: wall %.3fs cpu %.3fs setup %.3fs rss %.0f MiB\n",
			def.name, i+1, rep.WallS, rep.CPUS, rep.SetupS, rss)
		timed += rep.WallS
		reps = append(reps, rep)
		for name, v := range map[string]float64{
			"setup_s": rep.SetupS, "wall_s": rep.WallS, "cpu_s": rep.CPUS,
			"inv_per_s": rep.Counts["platform.invocations"] / rep.WallS, "peak_rss_mb": rss,
		} {
			samples[name] = append(samples[name], v)
		}
		for name, v := range rep.Host {
			samples[name] = append(samples[name], v)
		}
		for _, p := range rep.Problems {
			problems = append(problems, fmt.Sprintf("%s rep %d: %s", def.name, i+1, p))
		}
		if i > 0 {
			problems = append(problems, sameVirtual(fmt.Sprintf("%s rep %d vs rep 1", def.name, i+1), reps[0], rep)...)
		}
	}

	first := reps[0]
	res := &workloadResult{OpsAttempted: first.OpsAttempted, OpsFailed: first.OpsFailed,
		ExpectedFailures: first.ExpectedFailures, Outputs: first.Outputs,
		EndToEnd: map[string]summary{}, PerLayer: map[string]summary{}}
	if unplanned := first.OpsFailed - first.ExpectedFailures; unplanned != 0 {
		problems = append(problems, fmt.Sprintf("%s: %d of %d requests failed that the workload does not provoke",
			def.name, unplanned, first.OpsAttempted))
	}
	for _, m := range endToEnd {
		if isVirtual(m.Name) {
			// Identical on every repetition (checked above): n counts the
			// repetitions that agreed.
			v := first.Virtual[m.Name]
			res.EndToEnd[m.Name] = constant(m.Unit, v, len(reps))
			continue
		}
		res.EndToEnd[m.Name] = summarize(m.Unit, samples[m.Name])
	}
	for _, m := range countMetrics {
		v := first.Counts[m.Name]
		res.PerLayer[m.Name] = constant(m.Unit, v, len(reps))
	}
	for _, m := range hostMetrics {
		if s, ok := samples[m.Name]; ok {
			res.PerLayer[m.Name] = summarize(m.Unit, s)
		}
	}
	wall := res.EndToEnd["wall_s"]
	iqr := 100 * wall.iqrShare()
	res.PerLayer["host.wall_iqr_pct"] = constant("%", iqr, 1)

	if !cfg.quick && cfg.seed == defaultSeed && cfg.workers == 0 {
		problems = append(problems, checkExpected(def.name, first)...)
	}

	if cfg.trace {
		rep, _, err := spawn(cfg, def.name, true)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(progress, "%s traced: wall %.3fs\n", def.name, rep.WallS)
		for _, p := range rep.Problems {
			problems = append(problems, fmt.Sprintf("%s traced: %s", def.name, p))
		}
		// Tracing observes; it must not move a single virtual result.
		problems = append(problems, sameVirtual(def.name+" traced vs untraced", first, rep)...)
		for name, v := range rep.CPUShare {
			res.PerLayer[name] = constant("%", v, 1)
		}
		over := 100 * (rep.WallS/wall.Median - 1)
		res.PerLayer["host.trace_overhead_pct"] = constant("%", over, 1)
	}
	return res, problems, nil
}

// runLedger measures every selected workload and reports. It returns the
// process exit code.
func runLedger(cfg config, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perf ledger:", err)
		return 2
	}
	all := results{Stamp: makeStamp(cfg), Workloads: map[string]*workloadResult{}}
	for _, def := range cfg.workloads {
		res, problems, err := measure(cfg, def, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "perf ledger:", err)
			return 2
		}
		all.Workloads[def.name] = res
		all.Problems = append(all.Problems, problems...)
	}
	if cfg.trace {
		rep, _, err := spawn(cfg, layerwalkName, true)
		if err != nil {
			fmt.Fprintln(stderr, "perf ledger:", err)
			return 2
		}
		all.Layerwalk = rep.Layer
		for _, p := range rep.Problems {
			all.Problems = append(all.Problems, "layerwalk: "+p)
		}
	}

	printResults(stdout, all)
	data, err := json.MarshalIndent(all, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.out, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perf ledger:", err)
		return 2
	}
	if len(cfg.workloads) == 1 {
		// The acceptance driver's line: one workload, one JSON object last.
		fmt.Fprintln(stdout, driverLine(cfg, all))
	}
	if len(all.Problems) > 0 {
		return 1
	}
	return 0
}

// driverLine renders the one-object summary the acceptance driver reads:
// the end-to-end metrics of an untraced run, the per-layer ones of a
// traced run.
func driverLine(cfg config, all results) string {
	res := all.Workloads[cfg.workloads[0].name]
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if cfg.trace {
		for _, m := range perLayer() {
			s, ok := res.PerLayer[m.Name]
			if !ok {
				s = all.Layerwalk[m.Name]
			}
			metrics[m.Name] = value{s.Median, m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{res.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(all.Problems) == 0, res.OpsAttempted, res.OpsFailed - res.ExpectedFailures, metrics})
	return string(line)
}

func printResults(w io.Writer, all results) {
	st := all.Stamp
	fmt.Fprintf(w, "perf ledger: commit %s seed %d nproc %d GOMAXPROCS %d %s, %s\n",
		st.Commit, st.Seed, st.NProc, st.GOMAXPROCS, st.GoVersion, st.CPUModel)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	row := func(name string, s summary) {
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	for _, def := range workloadDefs {
		res := all.Workloads[def.name]
		if res == nil {
			continue
		}
		fmt.Fprintf(tw, "\n%s\tunit\tmedian\tq1\tq3\tn\n", def.name)
		fmt.Fprintf(tw, "  ops_attempted\tcount\t%d\t\t\t\n  ops_failed\tcount\t%d\t(%d provoked)\t\t\n",
			res.OpsAttempted, res.OpsFailed, res.ExpectedFailures)
		for _, m := range endToEnd {
			row(m.Name, res.EndToEnd[m.Name])
		}
		for _, m := range perLayer() {
			if s, ok := res.PerLayer[m.Name]; ok {
				row(m.Name, s)
			}
		}
	}
	if len(all.Layerwalk) > 0 {
		fmt.Fprintf(tw, "\nlayerwalk\tunit\tmedian\tq1\tq3\tn\n")
		for _, m := range layerwalkMetrics {
			row(m.Name, all.Layerwalk[m.Name])
		}
	}
	tw.Flush()
	for _, p := range all.Problems {
		fmt.Fprintln(w, "FAILED CHECK:", p)
	}
}

// --- goldens ------------------------------------------------------------

// expectedWorkload pins everything about a workload that the seed decides.
type expectedWorkload struct {
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	Virtual      map[string]float64 `json:"virtual"`
	Counts       map[string]float64 `json:"counts"`
	Outputs      []string           `json:"outputs"`
}

// expectedFile is expected.json: the goldens at the default seed and full
// size. Other seeds only get the cross-mode output check.
type expectedFile struct {
	Seed      uint64                      `json:"seed"`
	Workloads map[string]expectedWorkload `json:"workloads"`
}

//go:embed expected.json
var expectedJSON []byte

func checkExpected(workload string, rep childReport) []string {
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return []string{"expected.json: " + err.Error()}
	}
	want, ok := exp.Workloads[workload]
	if !ok {
		return []string{fmt.Sprintf("expected.json has no entry for %s (run -update-expected)", workload)}
	}
	got := expectedOf(rep)
	var out []string
	diff := func(field string, g, w any) {
		if !reflect.DeepEqual(g, w) {
			out = append(out, fmt.Sprintf("%s: %s is %v, expected.json says %v", workload, field, g, w))
		}
	}
	diff("ops_attempted", got.OpsAttempted, want.OpsAttempted)
	diff("ops_failed", got.OpsFailed, want.OpsFailed)
	for _, name := range sortedKeys(want.Virtual) {
		diff(name, got.Virtual[name], want.Virtual[name])
	}
	for _, name := range sortedKeys(want.Counts) {
		diff(name, got.Counts[name], want.Counts[name])
	}
	diff("outputs", got.Outputs, want.Outputs)
	return out
}

func expectedOf(rep childReport) expectedWorkload {
	return expectedWorkload{OpsAttempted: rep.OpsAttempted, OpsFailed: rep.OpsFailed,
		Virtual: rep.Virtual, Counts: rep.Counts, Outputs: rep.Outputs}
}

// updateExpected re-measures the goldens and writes expected.json into the
// source directory, which must be the working directory or its benchmark/.
func updateExpected(cfg config, stderr io.Writer) int {
	path := "expected.json"
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		path = filepath.Join("benchmark", path)
	} else if mod, err := os.ReadFile("go.mod"); err != nil || !bytes.Contains(mod, []byte("module rmmap/benchmark")) {
		fmt.Fprintln(stderr, "perf ledger: -update-expected must run in the repository root or in benchmark/")
		return 2
	}
	exp := expectedFile{Seed: defaultSeed, Workloads: map[string]expectedWorkload{}}
	cfg.seed, cfg.quick, cfg.workers = defaultSeed, false, 0
	for _, def := range workloadDefs {
		rep, _, err := spawn(cfg, def.name, false)
		if err != nil {
			fmt.Fprintln(stderr, "perf ledger:", err)
			return 2
		}
		if len(rep.Problems) > 0 {
			fmt.Fprintf(stderr, "perf ledger: %s fails its own checks, goldens not updated: %v\n", def.name, rep.Problems)
			return 1
		}
		exp.Workloads[def.name] = expectedOf(rep)
	}
	data, err := json.MarshalIndent(exp, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perf ledger:", err)
		return 2
	}
	fmt.Fprintf(stderr, "wrote %s; rebuild to embed it\n", path)
	return 0
}
