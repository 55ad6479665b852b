package platform

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"

	"rmmap/internal/admit"
	"rmmap/internal/obs"
)

// Mode selects the state-transfer mechanism for a run — the comparison
// axis of every figure in §5.
type Mode int

// Transfer modes.
const (
	// ModeMessaging pickles states into cloudevents (Knative default).
	ModeMessaging Mode = iota
	// ModeStoragePocket pickles into Pocket.
	ModeStoragePocket
	// ModeStorageDrTM pickles into the RDMA-optimized DrTM-KV.
	ModeStorageDrTM
	// ModeRMMAP transfers pointers via remote memory map, demand paging.
	ModeRMMAP
	// ModeRMMAPPrefetch adds semantic-aware prefetching.
	ModeRMMAPPrefetch
)

var modeNames = [...]string{
	ModeMessaging:     "messaging",
	ModeStoragePocket: "storage(pocket)",
	ModeStorageDrTM:   "storage(rdma)",
	ModeRMMAP:         "rmmap",
	ModeRMMAPPrefetch: "rmmap(prefetch)",
}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return "mode(?)"
}

// IsRMMAP reports whether the mode uses remote memory map.
func (m Mode) IsRMMAP() bool { return m == ModeRMMAP || m == ModeRMMAPPrefetch }

// AllModes lists every transfer mode in report order.
func AllModes() []Mode {
	return []Mode{ModeMessaging, ModeStoragePocket, ModeStorageDrTM, ModeRMMAP, ModeRMMAPPrefetch}
}

// modeAliases are the flag-friendly spellings ParseMode accepts besides
// the report names.
var modeAliases = map[string]Mode{
	"pocket":         ModeStoragePocket,
	"storage-pocket": ModeStoragePocket,
	"rdma":           ModeStorageDrTM,
	"drtm":           ModeStorageDrTM,
	"storage-rdma":   ModeStorageDrTM,
	"storage-drtm":   ModeStorageDrTM,
	"prefetch":       ModeRMMAPPrefetch,
	"rmmap-prefetch": ModeRMMAPPrefetch,
}

// ParseMode resolves a transfer mode from its report name (Mode.String) or
// a flag-friendly alias, case-insensitively.
func ParseMode(s string) (Mode, error) {
	want := strings.ToLower(s)
	for _, m := range AllModes() {
		if m.String() == want {
			return m, nil
		}
	}
	if m, ok := modeAliases[want]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("unknown mode %q; known: %v, aliases: %v",
		s, AllModes(), slices.Sorted(maps.Keys(modeAliases)))
}

// Options tune a run; the zero value is the paper's default configuration.
type Options struct {
	// ZeroNetwork zeroes messaging/storage protocol costs (Fig 5).
	ZeroNetwork bool
	// ColdStart disables pre-warming (functions pay container creation).
	ColdStart bool
	// Trace records per-invocation spans into RunResult.Trace.
	Trace bool
	// Obs, when non-nil, receives every completed request's counters and
	// virtual-time totals under canonical metric names (PublishRun). The
	// engine only writes to it at collection time — observation, never
	// behavior.
	Obs *obs.Registry
	// Compress DEFLATEs messaging payloads before the cloudevent wrap —
	// the §6 trade-off the abl-compress experiment quantifies.
	Compress bool
	// ForwardRemote enables the multi-hop remote-map design the paper
	// sketches as future work (§4.4): when a handler passes its remote
	// input through unchanged, the upstream registration is forwarded to
	// the next consumer instead of deep-copied.
	ForwardRemote bool
	// Recovery enables the failure-handling ladder (retry → degradation →
	// re-execution, see RecoveryPolicy). nil means any transfer failure
	// fails the request — the negative control for the chaos experiments.
	Recovery *RecoveryPolicy
	// Admission enables the overload-control layer (DESIGN.md §11):
	// per-tenant quotas and circuit breakers, a bounded admission queue,
	// backpressure watermarks, and per-request deadlines that propagate
	// into the recovery ladder. nil disables admission entirely — Submit
	// starts every request immediately, exactly the pre-admission
	// behaviour.
	Admission *admit.Config
	// Replicas asynchronously replicates every registration's shadow
	// frames to this many backup machines (clipped to machines-1) and
	// turns on lease-based liveness tracking: consumers of a crashed
	// producer fail over to a replica instead of waiting for
	// re-execution. 0 disables replication (the seed behaviour).
	Replicas int
	// NoPageCache disables the machine-level remote page cache (the
	// fan-out ablation's negative control); default is enabled with
	// kernel.DefaultPageCacheBytes.
	NoPageCache bool
	// PageCacheBytes overrides the per-machine page-cache byte budget
	// (0 = kernel.DefaultPageCacheBytes).
	PageCacheBytes int64
	// NoReadahead disables fault-coalescing readahead; default is an
	// adaptive window capped at kernel.DefaultReadaheadMax pages.
	NoReadahead bool
	// RackLocal enables rack-locality-aware placement on multi-rack
	// clusters: an invocation whose first input arrives by rmap prefers a
	// free pod in the producer's rack, so demand faults stay under one
	// ToR instead of crossing the spine. No-op on flat clusters; warm
	// affinity and explicit pins still take precedence.
	RackLocal bool
	// Workers sizes the engine's worker pool: invocations that are
	// concurrently eligible (same dispatch frontier, different machines)
	// execute on up to this many goroutines, with their effects committed
	// in canonical submit order so every output — traces, metrics,
	// RunResults, bench JSON — is byte-identical at any worker count.
	// 0 means GOMAXPROCS; 1 is the sequential behavioral reference.
	Workers int
}

// DefaultSmallState is the messaging-fallback threshold (§6): at or below
// this estimated wire size, serializing is cheaper than register+rmap.
const DefaultSmallState = 512

// DefaultTextPages is the resident library footprint (4 MB) that every
// producer registers, and CoW-marks, along with its used heap.
const DefaultTextPages = 1024

// replicas resolves the effective backup count on an n-machine cluster.
func (o Options) replicas(machines int) int {
	if o.Replicas <= 0 {
		return 0
	}
	r := o.Replicas
	if r > machines-1 {
		r = machines - 1
	}
	return r
}

// workerCount resolves the effective worker-pool size (0 = GOMAXPROCS).
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}
