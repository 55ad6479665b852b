package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rmmap/internal/bench"
	"rmmap/internal/load"
	"rmmap/internal/obs"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

type traceConfig struct {
	*clusterFlags
	workload string
	scale    float64
	openRate float64
	duration time.Duration

	metricsPath string
	chromePath  string
	jsonlPath   string
	profilePath string
	list        bool
}

func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("trace", stderr)
	cfg := traceConfig{clusterFlags: newClusterFlags(fs,
		use{"mode", "rmmap(prefetch)", "transfer mode (see -list)"},
		use{"requests", 1, "sequential requests to run and aggregate"},
		use{"machines", 10, "cluster machines"},
		use{"pods", 80, "cluster pods"},
		use{"topology", "", ""},
	)}
	fs.StringVar(&cfg.workload, "workload", "FINRA", "registered workload name (see -list)")
	fs.Float64Var(&cfg.scale, "scale", 1.0, "payload scale factor in (0,1]")
	fs.Float64Var(&cfg.openRate, "openloop", 0, "open-loop request rate (req/s of virtual time); 0 = closed single/sequential runs")
	fs.DurationVar(&cfg.duration, "duration", 2*time.Second, "virtual duration of the open-loop run")
	fs.StringVar(&cfg.metricsPath, "metrics", "", "write canonical metrics snapshot JSON here")
	fs.StringVar(&cfg.chromePath, "chrome-trace", "", "write Chrome trace-event JSON here")
	fs.StringVar(&cfg.jsonlPath, "jsonl", "", "write flat span JSONL here")
	fs.StringVar(&cfg.profilePath, "profile", "", "write folded virtual-time profile here")
	fs.BoolVar(&cfg.list, "list", false, "list workloads and modes, then exit")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if err := traceRun(cfg, stdout); err != nil {
		fmt.Fprintf(stderr, "rmmap trace: %v\n", err)
		return 1
	}
	return 0
}

func traceRun(cfg traceConfig, out io.Writer) error {
	if cfg.list {
		fmt.Fprintln(out, "workloads:")
		for _, w := range bench.Workflows(1) {
			fmt.Fprintf(out, "  %s\n", w.Name)
		}
		fmt.Fprintln(out, "modes:")
		for _, m := range platform.AllModes() {
			fmt.Fprintf(out, "  %s\n", m)
		}
		return nil
	}
	if cfg.scale <= 0 || cfg.scale > 1 {
		return fmt.Errorf("scale %v outside (0,1]", cfg.scale)
	}
	if cfg.openRate != 0 {
		if err := checkRate("openloop", cfg.openRate); err != nil {
			return err
		}
	}
	builder, err := findWorkload(cfg.workload, cfg.scale)
	if err != nil {
		return err
	}
	mode, err := platform.ParseMode(cfg.mode)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	opts := platform.Options{Trace: true, Obs: reg}
	clCfg := platform.ClusterConfig{Machines: cfg.machines, Pods: cfg.pods}
	if cfg.topology != "" {
		b, err := cfg.builder()
		if err != nil {
			return err
		}
		spec, err := b.Spec()
		if err != nil {
			return err
		}
		clCfg.Spec = &spec
	}
	e, err := platform.NewEngine(builder.Build(), mode, opts, clCfg)
	if err != nil {
		return err
	}

	var spans []platform.Span
	var runErr error
	if cfg.openRate != 0 {
		horizon := simtime.Duration(cfg.duration.Nanoseconds())
		res := load.Replay(e, load.Periodic(cfg.openRate, horizon), horizon)
		fmt.Fprintf(out, "%s / %s open loop: %d requests at %.1f req/s, throughput %.1f req/s\n",
			builder.Name, mode, res.Completed, cfg.openRate, res.Throughput())
		if failed := res.Failed + res.Shed; failed > 0 {
			// The registry already holds the completed requests' metrics;
			// keep going so -metrics still captures them, and surface the
			// failure as the exit status afterwards.
			runErr = fmt.Errorf("open loop: %d of %d requests failed", failed, failed+res.Completed)
		}
		if res.Completed > 0 {
			// The exponential-bucket view of the latencies, as -metrics
			// records them.
			h := obs.NewHistogram(obs.LatencyBucketsNs())
			for _, l := range res.Latencies {
				h.Observe(float64(l))
			}
			fmt.Fprintf(out, "latency p50=%v p90=%v p99=%v\n",
				simtime.Duration(h.Quantile(0.50)), simtime.Duration(h.Quantile(0.90)),
				simtime.Duration(h.Quantile(0.99)))
		}
		if cfg.chromePath != "" || cfg.jsonlPath != "" || cfg.profilePath != "" {
			fmt.Fprintln(out, "note: span artifacts are not produced for open-loop runs")
		}
	} else {
		requests := max(cfg.requests, 1)
		var last platform.RunResult
		for i := 0; i < requests; i++ {
			res, err := e.Run()
			if err != nil {
				return fmt.Errorf("request %d: %w", i+1, err)
			}
			spans = append(spans, res.Trace...)
			last = res
		}
		fmt.Fprintf(out, "%s / %s: %d request(s), last latency %v\n",
			builder.Name, mode, requests, last.Latency)
		for _, entry := range platform.BuildProfile(builder.Name, spans).ByCategory() {
			fmt.Fprintf(out, "  %-12s %v\n", entry.Category, entry.Total)
		}
		if err := writeSpanArtifacts(cfg, builder.Name, spans, out); err != nil {
			return err
		}
	}

	if cfg.metricsPath != "" {
		if err := writeFile(cfg.metricsPath, func(w io.Writer) error {
			return reg.Snapshot().WriteJSON(w)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", cfg.metricsPath)
	}
	return runErr
}

func writeSpanArtifacts(cfg traceConfig, workflow string, spans []platform.Span, out io.Writer) error {
	for _, a := range []struct {
		path, note string
		emit       func(io.Writer) error
	}{
		{cfg.chromePath, " (open in chrome://tracing or ui.perfetto.dev)", func(w io.Writer) error {
			return obs.ChromeTrace(w, platform.ExportSpans(spans))
		}},
		{cfg.jsonlPath, "", func(w io.Writer) error {
			return obs.WriteSpansJSONL(w, platform.ExportSpans(spans))
		}},
		{cfg.profilePath, " (folded stacks; feed to flamegraph.pl or speedscope)", func(w io.Writer) error {
			return platform.BuildProfile(workflow, spans).WriteFolded(w)
		}},
	} {
		if a.path == "" {
			continue
		}
		if err := writeFile(a.path, a.emit); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s%s\n", a.path, a.note)
	}
	return nil
}

func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

func findWorkload(name string, scale float64) (bench.WorkflowBuilder, error) {
	var names []string
	for _, w := range bench.Workflows(scale) {
		if strings.EqualFold(w.Name, name) {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return bench.WorkflowBuilder{}, fmt.Errorf("unknown workload %q; known: %s",
		name, strings.Join(names, ", "))
}
