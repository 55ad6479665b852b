package main

import (
	"fmt"
	"sort"

	"rmmap/internal/admit"
	"rmmap/internal/ctrl"
	"rmmap/internal/faults"
	"rmmap/internal/load"
	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/obs"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
	"rmmap/internal/workloads"
)

// workloadDef is one benchmark workload: why it exists, and how to set one
// repetition of it up. The reasons are the ones BENCHMARK.json carries.
type workloadDef struct {
	name  string
	why   string
	build func(c *runCtx) (*job, error)
}

var workloadDefs = []workloadDef{
	{"wf-serde", "serde baselines: 4 paper workflows x {messaging, storage(rdma)} at scale 0.15; objrt codec+GC and transport decode are ~75% of host CPU, kernel 0%: codec work shows here, kernel work must not", buildSerde},
	{"wf-rmmap", "the paper's headline path at published scale: 4 workflows x {rmmap, rmmap(prefetch)}; handler compute (ml, workloads) is ~60% of host CPU, transport 0%: bypass for codec work, flat line for refactors", buildRMMAP},
	{"xfer-fanout", "transfer-bound: 16 consumers read one 32 MiB object, 2 engine workers, page cache at 2x and 1/4 of the object; the memsim+kernel+rdma fault path is ~80% of host CPU: where lock sharding is judged", buildFanout},
	{"soak-curve", "open loop, Poisson: 3750 small requests at 0.5x-4x of 1000 req/s, 4x past capacity; per-request fixed costs (register/MarkCoW, auth RPC+rmap, deregister, sim, admit+shed, ctrl journal) dominate", buildSoak},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sizes are the knobs -quick shrinks. The full sizes make one repetition
// 5-6 s on a 2-core 2.6 GHz host.
type sizes struct {
	serdeScale, rmmapScale float64
	fanoutBytes            int
	fanoutRequests         int
	fanoutSmallCache       int64 // the small-cache legs' budget: a quarter of the object
	soakHorizon            simtime.Duration
}

var (
	fullSizes = sizes{serdeScale: 0.15, rmmapScale: 1.0,
		fanoutBytes: 32 << 20, fanoutRequests: 6, fanoutSmallCache: 8 << 20,
		soakHorizon: 500 * simtime.Millisecond}
	quickSizes = sizes{serdeScale: 0.03, rmmapScale: 0.03,
		fanoutBytes: 1 << 20, fanoutRequests: 2, fanoutSmallCache: 256 << 10,
		soakHorizon: 60 * simtime.Millisecond}
)

// runCtx is what a workload's set-up sees.
type runCtx struct {
	seed    uint64
	sizes   sizes
	workers int // 0 = the workload's own worker count
	// tr and reg are nil in untraced runs: no harness spans, Options.Trace
	// and Options.Obs off.
	tr  *tracer
	reg *obs.Registry
}

func (c *runCtx) options(o platform.Options, workers int) platform.Options {
	o.Workers = workers
	if c.workers > 0 {
		o.Workers = c.workers
	}
	o.Trace = c.tr != nil
	o.Obs = c.reg
	return o
}

// job is one repetition after set-up: the timed region, then the untimed
// harvest of what it did.
type job struct {
	timed  func() error
	finish func(t *tally)
}

// --- closed-loop workloads: cells of back-to-back requests ----------------

// cell is one engine serving a fixed number of requests one after the
// other (closed loop, one client).
type cell struct {
	label string
	// group names the cells that must agree on every request's output —
	// the same workflow under different modes or cache budgets.
	group    string
	engine   *platform.Engine
	requests int
	perReq   int // function invocations per request
	results  []platform.RunResult
}

func (c *runCtx) newCell(group, variant string, wf *platform.Workflow, mode platform.Mode,
	opts platform.Options, cfg platform.ClusterConfig, requests int) (*cell, error) {
	cl := &cell{label: group + "/" + variant, group: group, requests: requests, perReq: wf.TotalInvocations()}
	err := c.tr.do("platform.NewEngine "+cl.label, func() (err error) {
		cl.engine, err = platform.NewEngine(wf, mode, opts, cfg)
		return err
	})
	return cl, err
}

// runChained submits n requests, each from the completion of the one
// before, and runs the simulator until the last has finished.
func runChained(e *platform.Engine, n int) []platform.RunResult {
	var out []platform.RunResult
	var submit func()
	submit = func() {
		e.Submit(func(r platform.RunResult) {
			out = append(out, r)
			if len(out) < n {
				submit()
			}
		})
	}
	submit()
	e.Cluster.Sim.Run()
	return out
}

func closedLoopJob(c *runCtx, cells []*cell) *job {
	return &job{
		timed: func() error {
			for _, cl := range cells {
				_ = c.tr.do("platform.Engine.Submit+Sim.Run "+cl.label, func() error {
					cl.results = runChained(cl.engine, cl.requests)
					return nil
				})
				if len(cl.results) != cl.requests {
					return fmt.Errorf("%s: %d of %d requests completed", cl.label, len(cl.results), cl.requests)
				}
			}
			return nil
		},
		finish: func(t *tally) {
			first := map[string]*cell{}
			for _, cl := range cells {
				for i, r := range cl.results {
					out := fmt.Sprint(r.Output)
					t.outputs = append(t.outputs, fmt.Sprintf("%s #%d: %s", cl.label, i+1, out))
					ok := r.Err == nil && !r.Shed
					// Cells of a group run the same inputs, so request i
					// must report the same value in each of them.
					if ref := first[cl.group]; ok && ref != nil && fmt.Sprint(ref.results[i].Output) != out {
						t.problemf("%s #%d: output %q differs from %s's %q", cl.label, i+1, out, ref.label, fmt.Sprint(ref.results[i].Output))
						ok = false
					}
					t.request(r, ok, cl.perReq)
					if ok {
						// One client, closed loop: the virtual time that
						// passes is the sum of the latencies.
						t.latNs = append(t.latNs, float64(r.Latency))
						t.span += r.Latency
					}
				}
				if first[cl.group] == nil {
					first[cl.group] = cl
				}
				t.engine(cl.engine)
				cl.engine.Cluster.Close()
			}
		},
	}
}

// scaleInt shrinks a calibrated size the way internal/bench does, so that
// at seed 1 these are exactly bench.Workflows(scale)'s configurations.
func scaleInt(n int, scale float64) int {
	if scale <= 0 || scale >= 1 {
		return n
	}
	if s := int(float64(n) * scale); s >= 1 {
		return s
	}
	return 1
}

type paperConfigs struct {
	finra workloads.FINRAConfig
	mlt   workloads.MLTrainConfig
	mlp   workloads.MLPredictConfig
	wc    workloads.WordCountConfig
}

// paperWorkflows sizes the four evaluated workflows (§5.1) and derives
// their input seeds from the benchmark seed: S, S+1, S+2, S+3, which at
// S = 1 are the defaults the repository's experiments use.
//
// The seed also adds up to 7 rows, images or lines to each input (none at
// S = 1). The cost model charges for sizes, not contents, so without it
// ML-training's virtual latency — the largest of wf-rmmap — was the same
// 110.624575 ms at every seed, and a run over other seeds said nothing
// about virtual results. The extra work is under 1% of a repetition.
func paperWorkflows(scale float64, seed uint64) paperConfigs {
	extra := int((seed - 1) % 8)
	var p paperConfigs
	p.finra = workloads.DefaultFINRA()
	p.finra.Rows = scaleInt(p.finra.Rows, scale) + extra
	p.finra.Rules = max(8, scaleInt(p.finra.Rules, scale*0.25+0.75))
	p.finra.Seed = int64(seed)
	p.mlt = workloads.DefaultMLTrain()
	p.mlt.Images = scaleInt(p.mlt.Images, scale) + extra
	p.mlt.Seed = int64(seed) + 1
	p.mlp = workloads.DefaultMLPredict()
	p.mlp.Images = scaleInt(p.mlp.Images, scale) + extra
	p.mlp.Seed = int64(seed) + 2
	p.wc = workloads.DefaultWordCount()
	p.wc.BookBytes = scaleInt(p.wc.BookBytes, scale) + 72*extra
	p.wc.Seed = int64(seed) + 3
	return p
}

type namedWorkflow struct {
	name  string
	build func() *platform.Workflow
}

func (p paperConfigs) builders() []namedWorkflow {
	return []namedWorkflow{
		{"FINRA", func() *platform.Workflow { return workloads.FINRA(p.finra) }},
		{"ML-training", func() *platform.Workflow { return workloads.MLTrain(p.mlt) }},
		{"ML-prediction", func() *platform.Workflow { return workloads.MLPredict(p.mlp) }},
		{"WordCount", func() *platform.Workflow { return workloads.WordCount(p.wc) }},
	}
}

// paperGrid is wf-serde and wf-rmmap: every workflow under each mode, one
// request per cell on a fresh 10-machine/80-pod engine, one worker.
func paperGrid(c *runCtx, scale float64, modes []platform.Mode) (*job, error) {
	var cells []*cell
	for _, wf := range paperWorkflows(scale, c.seed).builders() {
		for _, mode := range modes {
			cl, err := c.newCell(wf.name, mode.String(), wf.build(), mode,
				c.options(platform.Options{}, 1), platform.DefaultClusterConfig(), 1)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cl)
		}
	}
	return closedLoopJob(c, cells), nil
}

func buildSerde(c *runCtx) (*job, error) {
	return paperGrid(c, c.sizes.serdeScale, []platform.Mode{platform.ModeMessaging, platform.ModeStorageDrTM})
}

func buildRMMAP(c *runCtx) (*job, error) {
	return paperGrid(c, c.sizes.rmmapScale, []platform.Mode{platform.ModeRMMAP, platform.ModeRMMAPPrefetch})
}

// mix64 is SplitMix64's finalizer — also the scrambling the engine applies
// to registration keys, so the control-plane benches' keys spread like
// real ones.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// splitmix is the input generator for what the benchmark itself makes up
// (the fan-out payload): pinned arithmetic, so a seed means the same bytes
// on every Go version.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

const fanoutConsumers = 16

// sampleSum adds up one byte per page, at an offset that drifts through
// the page: enough to notice a page that arrived wrong or not at all (the
// payload is random bytes), cheap enough that the handler stays near-zero
// compute beside the transfer it exists to provoke.
func sampleSum(b []byte) uint64 {
	var sum uint64
	for i := 0; i < len(b); i += memsim.PageSize + 3 {
		sum += uint64(b[i])
	}
	return sum + uint64(len(b))
}

// fanoutWorkflow: a producer pinned to machine 0 publishes payload as one
// Bytes object, 16 unpinned consumers read all of it and return a sampled
// checksum, one sink adds the checksums up.
func fanoutWorkflow(payload []byte) *platform.Workflow {
	return &platform.Workflow{
		Name: "xfer-fanout",
		Functions: []*platform.FunctionSpec{
			{Name: "produce", Instances: 1, PinMachine: platform.Pin(0),
				Handler: func(ctx *platform.Ctx) (objrt.Obj, error) { return ctx.RT.NewBytes(payload) }},
			{Name: "consume", Instances: fanoutConsumers,
				Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
					b, err := ctx.Inputs[0].Bytes()
					if err != nil {
						return objrt.Obj{}, err
					}
					return ctx.RT.NewInt(int64(sampleSum(b)))
				}},
			{Name: "sink", Instances: 1,
				Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
					var total int64
					for _, in := range ctx.Inputs {
						v, err := in.Int()
						if err != nil {
							return objrt.Obj{}, err
						}
						total += v
					}
					ctx.Report(fmt.Sprintf("%d checksums, sum %d", len(ctx.Inputs), total))
					return objrt.Obj{}, nil
				}},
		},
		Edges: []platform.Edge{{From: "produce", To: "consume"}, {From: "consume", To: "sink"}},
	}
}

func buildFanout(c *runCtx) (*job, error) {
	rng := &splitmix{s: c.seed}
	// The object is up to 16 pages short of its nominal size, by the seed:
	// virtual time then depends on the seed here as it does on the other
	// workloads, at a cost of under 0.2% of the work.
	payload := make([]byte, c.sizes.fanoutBytes-int(rng.next()%17)*memsim.PageSize)
	for i := 0; i+8 <= len(payload); i += 8 {
		v := rng.next()
		for k := 0; k < 8; k++ {
			payload[i+k] = byte(v >> (8 * k))
		}
	}
	want := fmt.Sprintf("%d checksums, sum %d", fanoutConsumers, fanoutConsumers*sampleSum(payload))

	var cells []*cell
	for _, mode := range []platform.Mode{platform.ModeRMMAP, platform.ModeRMMAPPrefetch} {
		for _, cache := range []struct {
			name  string
			bytes int64
		}{{"cache-default", 0}, {"cache-small", c.sizes.fanoutSmallCache}} {
			cl, err := c.newCell("xfer-fanout", mode.String()+"/"+cache.name, fanoutWorkflow(payload), mode,
				c.options(platform.Options{PageCacheBytes: cache.bytes}, 2),
				platform.ClusterConfig{Machines: 4, Pods: 20}, c.sizes.fanoutRequests)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cl)
		}
	}
	j := closedLoopJob(c, cells)
	harvest := j.finish
	j.finish = func(t *tally) {
		harvest(t)
		// Every leg must also agree with what the harness computed from
		// the bytes it generated.
		if got := fmt.Sprint(cells[0].results[0].Output); got != want {
			t.problemf("%s: output %q, want %q", cells[0].label, got, want)
		}
	}
	return j, nil
}

// --- soak-curve: open loop ------------------------------------------------

const (
	soakBaseRate = 1000 // requests per virtual second at 1x
	soakTenants  = 1000
	soakDeadline = 50 * simtime.Millisecond
	soakMachines = 4
	soakPods     = 16
)

// soakPoint is one offered-load level on a fresh cluster: the first
// rate x horizon arrivals of a seeded Poisson process, so that every seed
// offers the same amount of work and moves only when it arrives and from
// which tenant.
type soakPoint struct {
	mult   float64
	engine *platform.Engine
	events []load.Event
	done   []soakOutcome
}

// The curve. 16 pods saturate a little above 2x: 0.5x and 1x are the fixed
// rates latency is reported at, 2x sits on the knee, and 4x is deliberately
// past capacity — sheds and deadline misses there are what the point is
// for, anywhere else they are failures nobody planned.
var soakMultipliers = []float64{1, 0.5, 2, 4}

func (p *soakPoint) pastCapacity() bool { return p.mult > 2 }

// belowKnee selects the points whose completed requests make up virt_ms
// and virt_p99_ms. On the knee the tail is a property of the arrival seed
// more than of the system: at 2x, p99 ranged from 5.7 to 13.4 ms over six
// seeds, at 1x from 3.9 to 4.2 ms.
func (p *soakPoint) belowKnee() bool { return p.mult <= 1 }

type soakOutcome struct {
	res platform.RunResult
	lat simtime.Duration // completion instant minus scheduled arrival
}

// soakPoints is soak-curve's set-up: one arrival schedule and one fresh
// cluster and engine per offered-load level.
func soakPoints(c *runCtx) (points []*soakPoint, perReq int, err error) {
	for _, mult := range soakMultipliers {
		p := &soakPoint{mult: mult}
		if err := c.tr.do(fmt.Sprintf("load.Poisson x%g", mult), func() error {
			rate := soakBaseRate * mult
			want := int(rate * c.sizes.soakHorizon.Seconds())
			// Twice the window holds `want` arrivals with all but
			// vanishing probability; the surplus is cut off.
			p.events = load.Poisson(load.PoissonSpec{
				Rate: rate, Horizon: 2 * c.sizes.soakHorizon,
				Tenants: soakTenants, Deadline: soakDeadline, Seed: c.seed,
			})
			if len(p.events) < want {
				return fmt.Errorf("soak x%g: the generator made %d of %d arrivals", mult, len(p.events), want)
			}
			p.events = p.events[:want]
			return nil
		}); err != nil {
			return nil, 0, err
		}
		// The engine load.RunSoak builds: recovery ladder on, default
		// admission, transports behind the (empty-plan) fault injector.
		if err := c.tr.do(fmt.Sprintf("platform.BuildCluster+NewEngineOn x%g", mult), func() error {
			wf, err := load.Workflow("wordcount", true)
			if err != nil {
				return err
			}
			perReq = wf.TotalInvocations()
			rec := platform.DefaultRecoveryPolicy()
			cluster := platform.NewChaosCluster(soakMachines, simtime.DefaultCostModel(), faults.Plan{}, rec.Retry)
			p.engine, err = platform.NewEngineOn(cluster, wf, platform.ModeRMMAP,
				c.options(platform.Options{Recovery: rec, Admission: &admit.Config{}}, 2), soakPods)
			return err
		}); err != nil {
			return nil, 0, err
		}
		points = append(points, p)
	}
	return points, perReq, nil
}

func buildSoak(c *runCtx) (*job, error) {
	points, perReq, err := soakPoints(c)
	if err != nil {
		return nil, err
	}
	return &job{
		timed: func() error {
			for _, p := range points {
				if err := c.tr.do(fmt.Sprintf("replay x%g (Sim.At+SubmitTenant+Sim.Run)", p.mult), p.replay); err != nil {
					return err
				}
			}
			return nil
		},
		finish: func(t *tally) {
			for _, p := range points {
				completed, shed, missed, failed := 0, 0, 0, 0
				outputs := map[string]int{}
				for _, o := range p.done {
					r := o.res
					ok, refused := false, true
					switch {
					case r.Shed && r.DeadlineExceeded:
						missed++
					case r.Shed:
						shed++
					case r.Err != nil:
						failed++
						refused = false
					case o.lat > soakDeadline:
						missed++ // finished, but too late to count
					default:
						ok = true
						completed++
						outputs[fmt.Sprint(r.Output)]++
					}
					t.request(r, ok, perReq)
					if !ok && refused && p.pastCapacity() {
						t.expectedFailures++
					}
					if ok && p.belowKnee() {
						t.latNs = append(t.latNs, float64(o.lat))
					}
				}
				if len(outputs) > 1 {
					t.problemf("soak x%g: requests of one workflow reported %d different outputs", p.mult, len(outputs))
				}
				t.outputs = append(t.outputs, fmt.Sprintf("x%g: offered %d completed %d shed %d deadline %d failed %d output %v",
					p.mult, len(p.events), completed, shed, missed, failed, sortedKeys(outputs)))
				// Goodput is taken over the whole curve: every point's
				// in-deadline completions, over every point's window.
				t.span += c.sizes.soakHorizon
				t.engine(p.engine)
				t.admission(p.engine.AdmissionStats())
				p.engine.Cluster.Close()
			}
		},
	}, nil
}

// replay schedules every arrival at its instant and runs the simulator
// dry. It is load.Replay with two differences the ledger needs: it keeps
// every RunResult (for the output check), and it takes latency from the
// scheduled arrival, so time spent in the admission queue counts.
func (p *soakPoint) replay() error {
	s := p.engine.Cluster.Sim
	late := 0
	for _, ev := range p.events {
		s.At(ev.At, func() {
			if s.Now() != ev.At {
				late++
			}
			p.engine.SubmitTenant(platform.SubmitInfo{Tenant: ev.Tenant, Deadline: ev.Deadline},
				func(r platform.RunResult) {
					p.done = append(p.done, soakOutcome{res: r, lat: s.Now().Sub(ev.At)})
				})
		})
	}
	s.Run()
	if late > 0 {
		return fmt.Errorf("soak x%g: generator ran late for %d arrivals", p.mult, late)
	}
	if len(p.done) != len(p.events) {
		return fmt.Errorf("soak x%g: %d of %d requests came back", p.mult, len(p.done), len(p.events))
	}
	return nil
}

// --- tally: what a repetition did ------------------------------------------

// tally accumulates a repetition's deterministic results: the virtual
// metrics, the group-(b) counts and the outputs.
type tally struct {
	attempted, failed, expectedFailures int
	invocations                         int
	// latNs holds the latencies virt_ms and virt_p99_ms are taken over:
	// every completed request of a closed-loop workload, those of the
	// points below the knee on soak-curve.
	latNs []float64
	// span is the virtual time virt_goodput_rps divides the completed
	// requests by.
	span  simtime.Duration
	meter *simtime.Meter
	// invokeOverhead is the platform-category charge of one invocation.
	invokeOverhead simtime.Duration
	// lastCtrl is the coordinator's cumulative activity as of the latest
	// request booked since the last engine() call.
	lastCtrl ctrl.Stats

	cacheHits, cacheMisses, cacheEvictions, readahead int64
	reads, batches, batchPages, rpcs                  int
	bytesRead                                         int64
	peakFrames                                        int
	coldStarts                                        int
	ctrlAppends, ctrlSnapshots                        int
	ctrlBytes                                         int64
	admitted, shed, submitted                         int

	outputs  []string
	problems []string
}

func newTally() *tally {
	return &tally{meter: simtime.NewMeter(), invokeOverhead: simtime.DefaultCostModel().InvokeOverhead}
}

func (t *tally) problemf(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// request books one finished request: ok means it completed, in time, with
// the right output. Invocations are counted as run, whether or not the
// request they belong to went on to complete: past capacity most of the
// simulated work is done for requests that expire. The engine charges
// InvokeOverhead to the platform category once per invocation and nothing
// else (cold starts are off), which is how a RunResult says how many ran.
func (t *tally) request(r platform.RunResult, ok bool, perReq int) {
	t.attempted++
	ran := int(r.Meter.Get(simtime.CatPlatform) / t.invokeOverhead)
	if !ok {
		t.failed++
	} else if ran != perReq {
		t.problemf("a completed request ran %d invocations, its workflow has %d", ran, perReq)
	}
	t.invocations += ran
	t.meter.AddAll(r.Meter)
	// Every RunResult that ran carries the coordinator's cumulative
	// counters (requests shed at the door carry none).
	if r.Ctrl.Appends > 0 {
		t.lastCtrl = r.Ctrl
	}
}

// engine books a finished engine's cluster-lifetime counters, after all of
// its requests have been booked.
func (t *tally) engine(e *platform.Engine) {
	cl := e.Cluster
	cs := cl.CacheStats()
	t.cacheHits += cs.Hits
	t.cacheMisses += cs.Misses
	t.cacheEvictions += cs.Evictions
	t.readahead += cs.ReadaheadPages
	reads, batches, rpcs, bytesRead := cl.Fabric.Stats()
	t.reads += reads
	t.batches += batches
	t.rpcs += rpcs
	t.bytesRead += bytesRead
	t.batchPages += cl.Fabric.BatchPages()
	t.peakFrames = max(t.peakFrames, cl.PeakBytes()/memsim.PageSize)
	t.coldStarts += e.ColdStarts()
	t.ctrlAppends += t.lastCtrl.Appends
	t.ctrlBytes += t.lastCtrl.JournalBytes
	t.ctrlSnapshots += t.lastCtrl.Snapshots
	t.lastCtrl = ctrl.Stats{}
}

func (t *tally) admission(s admit.Stats) {
	t.submitted += s.Submitted
	t.admitted += s.Admitted
	t.shed += s.Sheds()
}

// virtual returns the virtual-clock end-to-end metrics.
func (t *tally) virtual() map[string]float64 {
	sorted := append([]float64(nil), t.latNs...)
	sort.Float64s(sorted)
	var sum float64
	for _, l := range sorted {
		sum += l
	}
	out := map[string]float64{"virt_ms": 0, "virt_p99_ms": percentile(sorted, 0.99) / 1e6, "virt_goodput_rps": 0}
	if len(sorted) > 0 {
		out["virt_ms"] = sum / float64(len(sorted)) / 1e6
	}
	if t.span > 0 {
		out["virt_goodput_rps"] = float64(t.attempted-t.failed) / t.span.Seconds()
	}
	return out
}

// counts returns group (b).
func (t *tally) counts() map[string]float64 {
	pct := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * part / whole
	}
	out := map[string]float64{
		"platform.requests":      float64(t.attempted),
		"platform.invocations":   float64(t.invocations),
		"platform.cold_starts":   float64(t.coldStarts),
		"kernel.cache_hits":      float64(t.cacheHits),
		"kernel.cache_misses":    float64(t.cacheMisses),
		"kernel.cache_hit_rate":  pct(float64(t.cacheHits), float64(t.cacheHits+t.cacheMisses)),
		"kernel.cache_evictions": float64(t.cacheEvictions),
		"kernel.readahead_pages": float64(t.readahead),
		"rdma.reads":             float64(t.reads),
		"rdma.batches":           float64(t.batches),
		"rdma.batch_pages":       float64(t.batchPages),
		"rdma.rpcs":              float64(t.rpcs),
		"rdma.bytes_read":        float64(t.bytesRead),
		"memsim.peak_frames":     float64(t.peakFrames),
		"ctrl.journal_appends":   float64(t.ctrlAppends),
		"ctrl.journal_bytes":     float64(t.ctrlBytes),
		"ctrl.snapshots":         float64(t.ctrlSnapshots),
		"admit.admitted":         float64(t.admitted),
		"admit.shed":             float64(t.shed),
		"admit.shed_share":       pct(float64(t.shed), float64(t.submitted)),
	}
	for _, cat := range []simtime.Category{simtime.CatCompute, simtime.CatSerialize, simtime.CatDeserialize,
		simtime.CatNetwork, simtime.CatStorage, simtime.CatRegister, simtime.CatMap, simtime.CatFault,
		simtime.CatPlatform, simtime.CatCache, simtime.CatReadahead} {
		out["simtime."+cat.String()+"_ms"] = t.meter.Get(cat).Millis()
	}
	return out
}

// checkObs holds the traced run's metrics registry against the tally: the
// two count the same events through different code, so a disagreement
// means one of them is wrong.
func (t *tally) checkObs(reg *obs.Registry) {
	sums := map[string]int64{}
	for _, cp := range reg.Snapshot().Counters {
		key := cp.Name
		if cp.Name == obs.MetricSimtimeNs {
			if _, perFunction := cp.Labels["function"]; perFunction {
				continue
			}
			key += "/" + cp.Labels["category"]
		}
		sums[key] += cp.Value
	}
	check := func(key string, want int64) {
		if got := sums[key]; got != want {
			t.problemf("obs registry: %s is %d, the run's own results add up to %d", key, got, want)
		}
	}
	check(obs.MetricRuns, int64(t.attempted))
	t.meter.Each(func(c simtime.Category, d simtime.Duration) {
		check(obs.MetricSimtimeNs+"/"+c.String(), int64(d))
	})
	check(obs.MetricCacheHits, t.cacheHits)
	check(obs.MetricCacheMisses, t.cacheMisses)
	check(obs.MetricCacheEvictions, t.cacheEvictions)
	check(obs.MetricReadaheadPages, t.readahead)
	check(obs.MetricCtrlJournalAppends, int64(t.ctrlAppends))
	check(obs.MetricCtrlJournalBytes, t.ctrlBytes)
	check(obs.MetricAdmitted, int64(t.admitted))
	check(obs.MetricAdmissionSheds, int64(t.shed))
}
