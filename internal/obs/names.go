package obs

// Canonical metric names. Every reporter in the repo (engine publishing,
// rmmap trace artifacts) uses these.
//
// Naming scheme: rmmap_<subsystem>_<quantity>_<unit-or-total>. Counters end
// in _total (or _bytes_total/_ns_total for summed quantities); histograms
// name their unit. Label keys: workflow, mode, function, category, rung.
const (
	// MetricSimtimeNs is virtual time charged per simtime category
	// (label "category"; optionally "function" for per-function series).
	MetricSimtimeNs = "rmmap_simtime_ns_total"
	// MetricRunLatencyNs is the end-to-end request latency histogram.
	MetricRunLatencyNs = "rmmap_run_latency_ns"
	// MetricRuns counts completed requests (label "outcome": ok|error).
	MetricRuns = "rmmap_runs_total"

	// Recovery-ladder counters, one per rung (labelled "rung" where the
	// rung is also carried as a label on shared reports).
	MetricRetries        = "rmmap_recovery_retries_total"
	MetricFallbacks      = "rmmap_recovery_fallbacks_total"
	MetricReexecutions   = "rmmap_recovery_reexecutions_total"
	MetricFailovers      = "rmmap_recovery_failovers_total"
	MetricPartitionWaits = "rmmap_recovery_partition_waits_total"

	// Remote-page-cache and readahead counters (kernel.CacheStats).
	MetricCacheHits      = "rmmap_cache_hits_total"
	MetricCacheMisses    = "rmmap_cache_misses_total"
	MetricCacheInserts   = "rmmap_cache_inserts_total"
	MetricCacheEvictions = "rmmap_cache_evictions_total"
	MetricReadaheadPages = "rmmap_readahead_pages_total"

	// Liveness and replication counters.
	MetricReplicatedBytes = "rmmap_replication_bytes_total"
	MetricLeaseExpiries   = "rmmap_lease_expiries_total"

	// Admission-control counters (internal/admit), published only when the
	// engine runs with an admission config.
	// MetricAdmitted counts requests the admission layer started.
	MetricAdmitted = "rmmap_admission_admitted_total"
	// MetricAdmissionSheds counts shed requests (label "reason":
	// queue-full|deadline|control-plane).
	MetricAdmissionSheds = "rmmap_admission_sheds_total"
	// MetricColdStarts counts pod cold starts (first use of a freshly
	// created pod when Options.ColdStart is on).
	MetricColdStarts = "rmmap_pod_cold_starts_total"

	// Control-plane counters (internal/ctrl, DESIGN.md §13): the journaled
	// coordinator's durability and recovery activity plus the SWIM-lite
	// gossip rounds the failure detector ran.
	// MetricCtrlJournalAppends counts journal records written.
	MetricCtrlJournalAppends = "rmmap_ctrl_journal_appends_total"
	// MetricCtrlJournalBytes counts bytes appended to the journal.
	MetricCtrlJournalBytes = "rmmap_ctrl_journal_bytes_total"
	// MetricCtrlSnapshots counts snapshot compactions.
	MetricCtrlSnapshots = "rmmap_ctrl_snapshots_total"
	// MetricCtrlReplays counts journal records replayed by recoveries.
	MetricCtrlReplays = "rmmap_ctrl_replays_total"
	// MetricCtrlEpochBumps counts coordinator epoch adoptions (initial
	// start + one per recovery).
	MetricCtrlEpochBumps = "rmmap_ctrl_epoch_bumps_total"
	// MetricCtrlRecoveries counts successful coordinator recoveries.
	MetricCtrlRecoveries = "rmmap_ctrl_recoveries_total"
	// MetricCtrlDeferred counts control-plane operations backlogged while
	// the coordinator was down or partitioned.
	MetricCtrlDeferred = "rmmap_ctrl_deferred_total"
	// MetricCtrlDrift counts reconciliation repairs (label "kind":
	// dropped|adopted — kernels are authoritative).
	MetricCtrlDrift = "rmmap_ctrl_drift_total"
	// MetricCtrlGossipRounds counts failure-detector gossip rounds.
	MetricCtrlGossipRounds = "rmmap_ctrl_gossip_rounds_total"
)
