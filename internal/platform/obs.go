package platform

import (
	"sort"

	"rmmap/internal/obs"
	"rmmap/internal/simtime"
)

// Bridge from the engine's run artifacts (RunResult, trace spans) to the
// obs layer. Everything here derives from counters the run
// already produced — publishing is observation, never behavior.

// ExportSpans converts a run's trace to obs spans in export form: machines
// become processes, pods become threads, and each invocation's per-category
// breakdown, recovery markers, and cache deltas become ordered args.
func ExportSpans(spans []Span) []obs.Span {
	out := make([]obs.Span, 0, len(spans))
	for _, s := range spans {
		cat := "invocation"
		if s.Redo {
			cat = "redo"
		}
		if s.Shed {
			cat = "shed"
		}
		es := obs.Span{
			Name: s.Node, Cat: cat,
			Pid: s.Machine, Tid: s.Pod,
			Start: s.Start, End: s.End,
		}
		// Breakdown first, in sorted category order, then the counters —
		// a fixed arg order keeps every export byte-stable.
		cats := make([]string, 0, len(s.Breakdown))
		for c := range s.Breakdown {
			cats = append(cats, c)
		}
		sort.Strings(cats)
		for _, c := range cats {
			es.Args = append(es.Args, obs.Arg{Key: c + "_ns", Val: int64(s.Breakdown[c])})
		}
		if s.Retries > 0 {
			es.Args = append(es.Args, obs.Arg{Key: "retries", Val: int64(s.Retries)})
		}
		if s.Failovers > 0 {
			es.Args = append(es.Args, obs.Arg{Key: "failovers", Val: int64(s.Failovers)})
		}
		if s.CacheHits > 0 || s.CacheMisses > 0 {
			es.Args = append(es.Args,
				obs.Arg{Key: "cache_hits", Val: s.CacheHits},
				obs.Arg{Key: "cache_misses", Val: s.CacheMisses})
		}
		if s.ReadaheadPages > 0 {
			es.Args = append(es.Args, obs.Arg{Key: "readahead_pages", Val: s.ReadaheadPages})
		}
		if s.Err != "" {
			es.Args = append(es.Args, obs.Arg{Key: "error", Val: s.Err})
		}
		out = append(out, es)
	}
	return out
}

// PublishRun populates reg with one run's counters and virtual-time totals
// under canonical metric names (obs/names.go). Base labels carry the
// workflow and mode; per-category time is additionally split per function.
// Publishing the same result twice doubles the counters — registries are
// per-report, like Meters are per-invocation.
//
// The cache, replication, and lease fields are published as given, so they
// must be per-run deltas when the same registry spans several runs. The
// engine handles this itself: Engine.collect subtracts the
// cluster-cumulative totals it already published before calling here, even
// though the RunResult handed back to callers keeps the cumulative values.
func PublishRun(reg *obs.Registry, workflow, mode string, res RunResult) {
	base := obs.Labels{"workflow": workflow, "mode": mode}
	outcome := "ok"
	switch {
	case res.Shed:
		outcome = "shed"
	case res.Err != nil:
		outcome = "error"
	}
	runLabels := base.With("outcome", outcome)
	reg.Counter(obs.MetricRuns, runLabels).Add(1)
	reg.Histogram(obs.MetricRunLatencyNs, base, obs.LatencyBucketsNs()).
		Observe(float64(res.Latency))

	if res.Meter != nil {
		res.Meter.Each(func(c simtime.Category, d simtime.Duration) {
			reg.Counter(obs.MetricSimtimeNs, base.With("category", c.String())).Add(int64(d))
		})
	}
	fns := make([]string, 0, len(res.PerFunction))
	for fn := range res.PerFunction {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		labels := base.With("function", fn)
		res.PerFunction[fn].Each(func(c simtime.Category, d simtime.Duration) {
			reg.Counter(obs.MetricSimtimeNs, labels.With("category", c.String())).Add(int64(d))
		})
	}

	// Recovery-ladder counters, labelled with their rung so a dashboard can
	// stack them in ladder order.
	reg.Counter(obs.MetricRetries, base.With("rung", "retry")).Add(int64(res.Retries))
	reg.Counter(obs.MetricFallbacks, base.With("rung", "degrade")).Add(int64(res.Fallbacks))
	reg.Counter(obs.MetricFailovers, base.With("rung", "failover")).Add(int64(res.Failovers))
	reg.Counter(obs.MetricPartitionWaits, base.With("rung", "partition-wait")).Add(int64(res.PartitionWaits))
	reg.Counter(obs.MetricReexecutions, base.With("rung", "reexecute")).Add(int64(res.Reexecs))

	// Cache/readahead and replication counters.
	reg.Counter(obs.MetricCacheHits, base).Add(res.Cache.Hits)
	reg.Counter(obs.MetricCacheMisses, base).Add(res.Cache.Misses)
	reg.Counter(obs.MetricCacheInserts, base).Add(res.Cache.Inserts)
	reg.Counter(obs.MetricCacheEvictions, base).Add(res.Cache.Evictions)
	reg.Counter(obs.MetricReadaheadPages, base).Add(res.Cache.ReadaheadPages)
	reg.Counter(obs.MetricReplicatedBytes, base).Add(res.ReplicatedBytes)
	reg.Counter(obs.MetricLeaseExpiries, base).Add(int64(res.LeaseExpiries))

	// Control-plane counters (DESIGN.md §13). Drift keeps one series per
	// reconciliation direction; everything else is a plain counter.
	reg.Counter(obs.MetricCtrlJournalAppends, base).Add(int64(res.Ctrl.Appends))
	reg.Counter(obs.MetricCtrlJournalBytes, base).Add(res.Ctrl.JournalBytes)
	reg.Counter(obs.MetricCtrlSnapshots, base).Add(int64(res.Ctrl.Snapshots))
	reg.Counter(obs.MetricCtrlReplays, base).Add(int64(res.Ctrl.Replays))
	reg.Counter(obs.MetricCtrlEpochBumps, base).Add(int64(res.Ctrl.EpochBumps))
	reg.Counter(obs.MetricCtrlRecoveries, base).Add(int64(res.Ctrl.Recoveries))
	reg.Counter(obs.MetricCtrlDeferred, base).Add(int64(res.Ctrl.Deferred))
	reg.Counter(obs.MetricCtrlDrift, base.With("kind", "dropped")).Add(int64(res.Ctrl.DriftDropped))
	reg.Counter(obs.MetricCtrlDrift, base.With("kind", "adopted")).Add(int64(res.Ctrl.DriftAdopted))
	reg.Counter(obs.MetricCtrlGossipRounds, base).Add(int64(res.GossipRounds))
}

// BuildProfile folds a run's trace into a virtual-time profile: one cell
// per (workflow;node, category). The folded form renders as a flamegraph
// whose first frame is the workflow, second the node instance, leaf the
// simtime category.
func BuildProfile(workflow string, spans []Span) obs.Profile {
	b := obs.NewProfile()
	for _, s := range spans {
		path := workflow + ";" + s.Node
		if s.Redo {
			path += " (redo)"
		}
		for c, d := range s.Breakdown {
			b.Add(path, c, d) // builder aggregates; map order is irrelevant
		}
	}
	return b.Entries()
}
