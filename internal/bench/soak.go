package bench

import "rmmap/internal/load"

// SoakTables renders a chaos soak as the tables of the "soak" experiment
// rmmap load -json writes: a one-row summary and, when the spec has curve
// multipliers, the goodput-vs-offered-load curve.
func SoakTables(s load.Soak) Result {
	spec, r, a := s.Spec, s.Result, s.Result.Admission
	sum := &Table{Header: []string{"workflow", "mode", "machines", "pods", "tenants", "seed", "horizon",
		"offered", "completed", "failed", "shed", "offered req/s", "goodput req/s", "shed rate", "p50", "p99",
		"cold starts", "cold starts/req", "shed queue-full", "shed quota", "shed breaker", "shed backpressure",
		"shed deadline", "breaker trips", "breaker half-opens", "breaker closes", "injected faults"}}
	sum.add(spec.Workflow, spec.Mode.String(), spec.Machines, spec.Pods, spec.Gen.Tenants, spec.Gen.Seed, r.Horizon,
		r.Offered, r.Completed, r.Failed, r.Shed, r.OfferedRPS(), r.GoodputRPS(), pct(float64(r.Shed), float64(r.Offered)),
		r.Percentile(0.50), r.Percentile(0.99), r.ColdStarts, r.ColdStartRate(), a.ShedQueueFull, a.ShedQuota,
		a.ShedBreaker, a.ShedBackpressure, a.ShedDeadline, a.BreakerTrips, a.BreakerHalfOpens, a.BreakerCloses,
		s.Injected)
	tables := Result{sum}
	if len(s.Curve) > 0 {
		curve := &Table{Header: []string{"multiplier", "offered req/s", "goodput req/s", "shed rate", "p50", "p99"}}
		for i, p := range s.Curve {
			curve.add(Multiplier(spec.CurveMultipliers[i]), p.OfferedRPS(), p.GoodputRPS(),
				pct(float64(p.Shed), float64(p.Offered)), p.Percentile(0.50), p.Percentile(0.99))
		}
		tables = append(tables, curve)
	}
	return tables
}
