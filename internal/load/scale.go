package load

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"rmmap/internal/admit"
	"rmmap/internal/faults"
	"rmmap/internal/platform"
	"rmmap/internal/platformbuilder"
	"rmmap/internal/simtime"
)

// SoakSpec parameterizes one chaos soak: an open-loop multi-tenant
// schedule replayed against a (possibly fault-injected) cluster with
// admission control on. Everything in it is virtual-time deterministic:
// the produced ScaleReport is byte-identical at any Workers value and
// across fresh runs.
type SoakSpec struct {
	Workflow string
	Small    bool
	Mode     platform.Mode
	Machines int
	Pods     int
	// Workers sizes the engine worker pool. It deliberately does NOT
	// appear in the report — the report must not depend on it.
	Workers int
	// Topology selects the cluster shape: "" (or "flat") is the classic
	// flat cluster, otherwise a platformbuilder recipe name or topology
	// JSON file (rmmap load -topology). Multi-rack shapes add ToR/spine
	// hop and link-contention costs to every remote operation, all in
	// virtual time — the report stays deterministic.
	Topology string

	// Gen is the arrival schedule (BurstRate == BaseRate gives plain
	// Poisson).
	Gen BurstSpec
	// Events, when non-nil, replays this exact schedule instead of
	// generating from Gen (the -trace path).
	Events []Event

	// Plan is the fault plan (zero value: no faults).
	Plan faults.Plan
	// Recovery is the ladder policy; nil picks DefaultRecoveryPolicy.
	Recovery *platform.RecoveryPolicy
	// Admission tunes the overload layer (the zero Config works).
	Admission admit.Config
	// Replicas and ColdStart forward to platform.Options.
	Replicas  int
	ColdStart bool

	// CurveMultipliers are offered-load scale factors for the
	// goodput-vs-offered-load curve; each point runs the generated
	// schedule at multiplier×rates on a fresh cluster. Empty = no curve.
	CurveMultipliers []float64
}

// CurvePoint is one goodput-vs-offered-load sample.
type CurvePoint struct {
	Multiplier float64 `json:"multiplier"`
	OfferedRPS float64 `json:"offered_rps"`
	GoodputRPS float64 `json:"goodput_rps"`
	ShedRate   float64 `json:"shed_rate"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// ScaleReport is the BENCH_scale.json schema. Every field derives from
// virtual time and deterministic counters — no wall clock, no worker
// count — so two runs of the same SoakSpec marshal to identical bytes.
type ScaleReport struct {
	Workflow string `json:"workflow"`
	Mode     string `json:"mode"`
	// Topology is the cluster shape the soak ran on (omitted for the
	// classic flat cluster).
	Topology string  `json:"topology,omitempty"`
	Machines int     `json:"machines"`
	Pods     int     `json:"pods"`
	Tenants  int     `json:"tenants"`
	Seed     uint64  `json:"seed"`
	HorizonS float64 `json:"horizon_s"`

	Offered      int     `json:"offered"`
	Completed    int     `json:"completed"`
	Failed       int     `json:"failed"`
	Shed         int     `json:"shed"`
	OfferedRPS   float64 `json:"offered_rps"`
	SustainedRPS float64 `json:"sustained_rps"`
	ShedRate     float64 `json:"shed_rate"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`

	ColdStarts    int     `json:"cold_starts"`
	ColdStartRate float64 `json:"cold_start_rate"`

	ShedQueueFull    int `json:"shed_queue_full"`
	ShedQuota        int `json:"shed_quota"`
	ShedBreaker      int `json:"shed_breaker"`
	ShedBackpressure int `json:"shed_backpressure"`
	ShedDeadline     int `json:"shed_deadline"`
	BreakerTrips     int `json:"breaker_trips"`
	BreakerHalfOpens int `json:"breaker_half_opens"`
	BreakerCloses    int `json:"breaker_closes"`

	InjectedFaults int `json:"injected_faults"`

	Curve []CurvePoint `json:"goodput_vs_offered,omitempty"`
}

// engine builds a fresh chaos cluster + engine for one soak run.
func (spec SoakSpec) engine() (*platform.Engine, *platform.Cluster, error) {
	wf, err := Workflow(spec.Workflow, spec.Small)
	if err != nil {
		return nil, nil, err
	}
	rec := spec.Recovery
	if rec == nil {
		rec = platform.DefaultRecoveryPolicy()
	}
	adm := spec.Admission
	opts := platform.Options{
		Recovery:  rec,
		Admission: &adm,
		Replicas:  spec.Replicas,
		ColdStart: spec.ColdStart,
		Workers:   spec.Workers,
	}
	cluster, err := spec.cluster(rec)
	if err != nil {
		return nil, nil, err
	}
	e, err := platform.NewEngineOn(cluster, wf, spec.Mode, opts, spec.Pods)
	if err != nil {
		return nil, nil, err
	}
	return e, cluster, nil
}

// cluster builds the soak's substrate: the classic flat chaos cluster, or
// — with Topology set — a platformbuilder shape with the same fault
// injector and retry policy wired outside the topology wrap.
func (spec SoakSpec) cluster(rec *platform.RecoveryPolicy) (*platform.Cluster, error) {
	if spec.Topology == "" || spec.Topology == "flat" {
		return platform.NewChaosCluster(spec.Machines, simtime.DefaultCostModel(), spec.Plan, rec.Retry), nil
	}
	b, err := platformbuilder.Resolve(spec.Topology, spec.Machines)
	if err != nil {
		return nil, err
	}
	return b.WithChaos(spec.Plan, rec.Retry).Build()
}

// topologyLabel is what the report records for the soak's cluster shape.
func (spec SoakSpec) topologyLabel() string {
	if spec.Topology == "" || spec.Topology == "flat" {
		return ""
	}
	if b, err := platformbuilder.Resolve(spec.Topology, spec.Machines); err == nil {
		return b.Name()
	}
	return spec.Topology
}

// RunSoak runs the soak and builds its report: the headline numbers from
// the spec's schedule, then one fresh-cluster run per curve multiplier.
func RunSoak(spec SoakSpec) (ScaleReport, error) {
	if spec.Machines <= 0 {
		spec.Machines = 4
	}
	if spec.Pods <= 0 {
		spec.Pods = 16
	}
	events := spec.Events
	if events == nil {
		events = Bursty(spec.Gen)
	}
	e, cluster, err := spec.engine()
	if err != nil {
		return ScaleReport{}, err
	}
	defer cluster.Close()
	res := Replay(e, events, spec.Gen.Horizon)
	rep := ScaleReport{
		Workflow: spec.Workflow,
		Mode:     e.Mode().String(),
		Topology: spec.topologyLabel(),
		Machines: spec.Machines,
		Pods:     spec.Pods,
		Tenants:  spec.Gen.Tenants,
		Seed:     spec.Gen.Seed,
		HorizonS: res.Horizon.Seconds(),

		Offered:      res.Offered,
		Completed:    res.Completed,
		Failed:       res.Failed,
		Shed:         res.Shed,
		OfferedRPS:   res.OfferedRPS(),
		SustainedRPS: res.GoodputRPS(),
		ShedRate:     res.ShedRate(),
		P50Ms:        res.Percentile(0.50).Millis(),
		P99Ms:        res.Percentile(0.99).Millis(),

		ColdStarts:    res.ColdStarts,
		ColdStartRate: res.ColdStartRate(),

		ShedQueueFull:    res.Admission.ShedQueueFull,
		ShedQuota:        res.Admission.ShedQuota,
		ShedBreaker:      res.Admission.ShedBreaker,
		ShedBackpressure: res.Admission.ShedBackpressure,
		ShedDeadline:     res.Admission.ShedDeadline,
		BreakerTrips:     res.Admission.BreakerTrips,
		BreakerHalfOpens: res.Admission.BreakerHalfOpens,
		BreakerCloses:    res.Admission.BreakerCloses,

		InjectedFaults: cluster.Injector.Total(),
	}
	for _, mult := range spec.CurveMultipliers {
		gen := spec.Gen
		gen.BaseRate *= mult
		gen.BurstRate *= mult
		pe, pcl, err := spec.engine()
		if err != nil {
			return ScaleReport{}, err
		}
		pres := Replay(pe, Bursty(gen), gen.Horizon)
		pcl.Close()
		rep.Curve = append(rep.Curve, CurvePoint{
			Multiplier: mult,
			OfferedRPS: pres.OfferedRPS(),
			GoodputRPS: pres.GoodputRPS(),
			ShedRate:   pres.ShedRate(),
			P50Ms:      pres.Percentile(0.50).Millis(),
			P99Ms:      pres.Percentile(0.99).Millis(),
		})
	}
	return rep, nil
}

// WriteJSON writes the report as indented JSON (the BENCH_scale.json
// bytes; callers byte-compare them in the determinism suite).
func (r ScaleReport) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile writes the report to path.
func (r ScaleReport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return nil
}

// Summary renders the headline numbers for terminal output.
func (r ScaleReport) Summary() string {
	return fmt.Sprintf(
		"offered %.1f req/s, sustained %.1f req/s, shed %.1f%% (p50 %.3fms p99 %.3fms, cold-start rate %.3f)",
		r.OfferedRPS, r.SustainedRPS, 100*r.ShedRate, r.P50Ms, r.P99Ms, r.ColdStartRate)
}
