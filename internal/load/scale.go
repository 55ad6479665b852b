package load

import (
	"rmmap/internal/admit"
	"rmmap/internal/faults"
	"rmmap/internal/platform"
	"rmmap/internal/platformbuilder"
	"rmmap/internal/simtime"
)

// SoakSpec parameterizes one chaos soak: an open-loop multi-tenant
// schedule replayed against a (possibly fault-injected) cluster with
// admission control on. Everything in it is virtual-time deterministic:
// the Soak it produces is identical at any Workers value and across
// fresh runs.
type SoakSpec struct {
	Workflow string
	Small    bool
	Mode     platform.Mode
	Machines int
	Pods     int
	// Workers sizes the engine worker pool. No result depends on it.
	Workers int
	// Topology selects the cluster shape: "" (or "flat") is the classic
	// flat cluster, otherwise a platformbuilder recipe name or topology
	// JSON file (rmmap load -topology). Multi-rack shapes add ToR/spine
	// hop and link-contention costs to every remote operation, all in
	// virtual time — the soak stays deterministic.
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

// Soak is what RunSoak measured. Apart from Spec.Workers, every field
// derives from virtual time and deterministic counters, never from the
// worker count or the wall clock.
type Soak struct {
	// Spec is the spec that ran, its default cluster size filled in.
	Spec SoakSpec
	// Result is the replay of the spec's schedule, and Injected the
	// faults the plan injected during it.
	Result   Result
	Injected int
	// Curve holds one fresh-cluster replay per Spec.CurveMultipliers
	// entry, in order.
	Curve []Result
}

// engine builds a fresh cluster and engine for one soak run.
func (spec SoakSpec) engine() (*platform.Engine, error) {
	wf, err := Workflow(spec.Workflow, spec.Small)
	if err != nil {
		return nil, err
	}
	rec := spec.Recovery
	if rec == nil {
		rec = platform.DefaultRecoveryPolicy()
	}
	cluster, err := spec.cluster(rec)
	if err != nil {
		return nil, err
	}
	adm := spec.Admission
	return platform.NewEngineOn(cluster, wf, spec.Mode, platform.Options{
		Recovery:  rec,
		Admission: &adm,
		Replicas:  spec.Replicas,
		ColdStart: spec.ColdStart,
		Workers:   spec.Workers,
	}, spec.Pods)
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

// RunSoak runs the soak: the spec's schedule, then one fresh-cluster run
// per curve multiplier at multiplier×rates.
func RunSoak(spec SoakSpec) (Soak, error) {
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
	e, err := spec.engine()
	if err != nil {
		return Soak{}, err
	}
	defer e.Cluster.Close()
	soak := Soak{Spec: spec, Result: Replay(e, events, spec.Gen.Horizon)}
	soak.Injected = e.Cluster.Injector.Total()
	for _, mult := range spec.CurveMultipliers {
		gen := spec.Gen
		gen.BaseRate *= mult
		gen.BurstRate *= mult
		pe, err := spec.engine()
		if err != nil {
			return Soak{}, err
		}
		soak.Curve = append(soak.Curve, Replay(pe, Bursty(gen), gen.Horizon))
		pe.Cluster.Close()
	}
	return soak, nil
}
