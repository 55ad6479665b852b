package simtime

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration's unit so constants read naturally.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between two times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4fs", float64(d)/float64(Second))
	}
}

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis returns the duration as floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Micros returns the duration as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// PerSecond converts an events-per-second rate into the mean interval
// between events — the unit conversion open-loop generators and token
// buckets share. A rate that is not finite and positive, or whose
// interval falls under 1 ns or past the Duration range, yields 0, which
// callers must treat as "disabled" rather than "infinitely fast".
func PerSecond(rate float64) Duration {
	gap := float64(Second) / rate
	if !(gap >= 1 && gap < math.MaxInt64) {
		return 0
	}
	return Duration(gap)
}

// Category labels a charge on a Meter. The categories are chosen so that the
// paper's figure breakdowns (Fig 3, 5, 11, 15) fall directly out of a Meter.
type Category int

const (
	// CatCompute is user-function computation.
	CatCompute Category = iota
	// CatSerialize is producer-side object-graph serialization.
	CatSerialize
	// CatDeserialize is consumer-side object reconstruction.
	CatDeserialize
	// CatNetwork is messaging transfer cost (the Knative component path).
	CatNetwork
	// CatStorage is shared-storage protocol cost (put/get).
	CatStorage
	// CatRegister is register_mem cost: CoW PTE marking plus, with
	// prefetch, producer-side object traversal.
	CatRegister
	// CatMap is rmap cost: the auth+page-table RPC and VMA creation.
	CatMap
	// CatFault is remote page-fault handling plus RDMA page reads.
	CatFault
	// CatPlatform is coordinator invocation/scheduling overhead.
	CatPlatform
	// CatRetry is recovery backoff: virtual time spent re-attempting
	// remote operations that hit transient faults (§6 fault tolerance).
	CatRetry
	// CatCache is remote-page-cache management: CoW-shared installs on
	// cache hits and LRU eviction bookkeeping.
	CatCache
	// CatReadahead is fault-coalescing readahead: doorbell-batched reads
	// issued beyond the demand page.
	CatReadahead
	// CatHeartbeat is failure-detector traffic: lease probes and the
	// consumer-side lease revalidation RPCs issued after an expiry.
	CatHeartbeat
	// CatReplicate is async state replication: shadow-frame pushes to a
	// backup machine plus the prepare/commit control RPCs.
	CatReplicate
	// CatToR is top-of-rack switch traversal: per-hop latency plus access
	// link serialization on multi-rack topologies (DESIGN.md §14).
	CatToR
	// CatSpine is spine/aggregation traversal for cross-rack transfers:
	// the extra hop latency plus spine-link serialization.
	CatSpine
	// CatLinkWait is queueing delay: virtual time a transfer spent waiting
	// for a shared link already occupied by an earlier transfer.
	CatLinkWait
	numCategories
)

var categoryNames = [...]string{
	CatCompute:     "compute",
	CatSerialize:   "serialize",
	CatDeserialize: "deserialize",
	CatNetwork:     "network",
	CatStorage:     "storage",
	CatRegister:    "register",
	CatMap:         "map",
	CatFault:       "fault",
	CatPlatform:    "platform",
	CatRetry:       "retry",
	CatCache:       "cache",
	CatReadahead:   "readahead",
	CatHeartbeat:   "heartbeat",
	CatReplicate:   "replicate",
	CatToR:         "tor",
	CatSpine:       "spine",
	CatLinkWait:    "linkwait",
}

func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("category(%d)", int(c))
	}
	return categoryNames[c]
}

// Categories returns all categories in declaration order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Meter accumulates virtual-time charges for one logical thread of
// execution (e.g. one function invocation). It is not safe for concurrent
// use; each invocation gets its own Meter. That per-invocation ownership is
// also the parallel engine's sharding scheme: concurrently executing
// invocations each charge a private Meter (the shard), and the engine folds
// shards into the request meter with AddAll at canonical commit points (the
// merge), so totals are byte-identical at any worker count.
type Meter struct {
	byCat [numCategories]Duration
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// Charge adds d to category c. Negative charges are rejected to keep
// breakdowns physically meaningful.
func (m *Meter) Charge(c Category, d Duration) {
	if m == nil {
		return
	}
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative charge %v to %v", d, c))
	}
	m.byCat[c] += d
}

// Total returns the sum over all categories.
func (m *Meter) Total() Duration {
	var t Duration
	for _, d := range m.byCat {
		t += d
	}
	return t
}

// Get returns the accumulated duration of one category.
func (m *Meter) Get(c Category) Duration { return m.byCat[c] }

// Reset zeroes the meter.
func (m *Meter) Reset() { m.byCat = [numCategories]Duration{} }

// AddAll folds another meter into this one.
func (m *Meter) AddAll(o *Meter) {
	for i, d := range o.byCat {
		m.byCat[i] += d
	}
}

// Mark captures the meter's current per-category totals so a later
// ScaleSince can stretch just the charges added in between. The returned
// value is a plain copy; holding it allocates nothing beyond the caller's
// frame.
func (m *Meter) Mark() Meter { return *m }

// ScaleSince multiplies every charge added after base was captured by
// mult, charging the extra (mult−1)× portion to the same categories. It is
// how straggler machines stretch an operation's cost without knowing its
// breakdown (DESIGN.md §14). Multipliers at or below 1 are no-ops.
func (m *Meter) ScaleSince(base Meter, mult float64) {
	if m == nil || mult <= 1 {
		return
	}
	for i := range m.byCat {
		if delta := m.byCat[i] - base.byCat[i]; delta > 0 {
			m.byCat[i] += Duration(float64(delta) * (mult - 1))
		}
	}
}

// Each calls f for every category with a nonzero total, in declaration
// order. Reporters that need deterministic output (the obs registry, the
// fig14 JSON breakdown, folded profiles) use this instead of ranging over
// Snapshot's map.
func (m *Meter) Each(f func(Category, Duration)) {
	for i, d := range m.byCat {
		if d != 0 {
			f(Category(i), d)
		}
	}
}

// Snapshot returns a copy of the per-category totals keyed by name,
// omitting zero entries.
func (m *Meter) Snapshot() map[string]Duration {
	out := make(map[string]Duration)
	for i, d := range m.byCat {
		if d != 0 {
			out[Category(i).String()] = d
		}
	}
	return out
}

// TransferTotal returns the part of the meter attributable to state
// transfer: everything except pure compute and platform overhead. This is
// the quantity Fig 3 calls "state transfer".
func (m *Meter) TransferTotal() Duration {
	return m.Total() - m.byCat[CatCompute] - m.byCat[CatPlatform]
}

// SerTotal returns serialization + deserialization time (Fig 5's subject).
func (m *Meter) SerTotal() Duration {
	return m.byCat[CatSerialize] + m.byCat[CatDeserialize]
}

func (m *Meter) String() string {
	type kv struct {
		k string
		v Duration
	}
	var parts []kv
	for i, d := range m.byCat {
		if d != 0 {
			parts = append(parts, kv{Category(i).String(), d})
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].v > parts[j].v })
	var b strings.Builder
	fmt.Fprintf(&b, "total=%v", m.Total())
	for _, p := range parts {
		fmt.Fprintf(&b, " %s=%v", p.k, p.v)
	}
	return b.String()
}
