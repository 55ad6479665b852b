package faults

import (
	"errors"
	"fmt"
	"sync"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// Site names one class of injectable operation.
type Site int

// Injection sites.
const (
	// SiteRDMARead is a one-sided RDMA read of a remote frame.
	SiteRDMARead Site = iota
	// SiteDoorbell is a doorbell-batched multi-page read (§4.4).
	SiteDoorbell
	// SiteRPC is a kernel RPC (auth / dereg / page); Rule.Endpoint can
	// narrow a rule to one endpoint.
	SiteRPC
	// SiteTCPDial is connection establishment to a previously uncontacted
	// peer (the QP-connect / TCP-dial step).
	SiteTCPDial
	// SiteTCPRoundtrip is any request/response roundtrip on an established
	// connection.
	SiteTCPRoundtrip
	// SiteRDMAWrite is a doorbell-batched one-sided write (the replication
	// push path).
	SiteRDMAWrite
	// SitePartition counts operations refused by an asymmetric link
	// partition (see Partition); it is not a probabilistic rule site.
	SitePartition
	// SiteCoordinator is a control-plane operation against the
	// coordinator (plan issuance, registration, reclamation). Rules with
	// this site inject transient faults into coordinator calls; use
	// CoordinatorTarget as the Rule target (or AnyMachine).
	SiteCoordinator
	numSites
)

var siteNames = [...]string{
	SiteRDMARead:     "rdma-read",
	SiteDoorbell:     "doorbell",
	SiteRPC:          "rpc",
	SiteTCPDial:      "tcp-dial",
	SiteTCPRoundtrip: "tcp-roundtrip",
	SiteRDMAWrite:    "rdma-write",
	SitePartition:    "partition",
	SiteCoordinator:  "coordinator",
}

func (s Site) String() string {
	if s < 0 || int(s) >= len(siteNames) {
		return fmt.Sprintf("site(%d)", int(s))
	}
	return siteNames[s]
}

// ErrInjected marks a transient injected fault: the operation failed this
// time but may succeed if retried (a dropped packet, a timed-out RPC).
// Recovery layers test for it with IsTransient.
var ErrInjected = errors.New("faults: injected transient fault")

// IsTransient reports whether err is a retryable injected fault. Machine
// crashes are NOT transient: retrying a read against a dead machine cannot
// succeed, only re-execution or degradation can. Partitions are not
// transient either — within one synchronous invocation the virtual clock
// is frozen, so in-invocation retries can never outlast a partition
// window; healing is the platform's job (requeue after a wait).
func IsTransient(err error) bool { return errors.Is(err, ErrInjected) }

// ErrPartitioned marks an operation refused because the link between two
// live machines is partitioned. Unlike a crash it is not terminal: the
// same operation succeeds once the partition window lifts.
var ErrPartitioned = errors.New("faults: link partitioned")

// PartitionError is the concrete refusal CheckPartition returns: it
// satisfies errors.Is(err, ErrPartitioned) and additionally names the
// severed directed link, so recovery code that parks on a partition can
// later ask the injector whether that same link is still cut (Partitioned)
// instead of re-running the operation to find out.
type PartitionError struct {
	From, To memsim.MachineID
	At       simtime.Time
}

func (p *PartitionError) Error() string {
	return fmt.Sprintf("%v: link %d->%d at %v", ErrPartitioned, p.From, p.To, simtime.Duration(p.At))
}

func (p *PartitionError) Unwrap() error { return ErrPartitioned }

// AnyMachine matches every target machine in a Rule.
const AnyMachine = memsim.MachineID(-1)

// CoordinatorTarget is the pseudo machine ID of the control-plane
// coordinator, usable as a Rule target (SiteCoordinator rules) and as a
// CoordPartition endpoint. The coordinator is not a data-plane machine,
// so it gets a reserved ID that can never collide with a real one.
const CoordinatorTarget = memsim.MachineID(-2)

// Rule injects transient faults at one site with a probability, optionally
// restricted to a target machine, an RPC endpoint, and a virtual-time
// window.
type Rule struct {
	Site Site
	// Target restricts the rule to operations against one machine;
	// AnyMachine (the zero Rule must set this explicitly) matches all.
	Target memsim.MachineID
	// Endpoint restricts a SiteRPC rule to one endpoint name ("" = all).
	Endpoint string
	// Prob is the per-operation injection probability in [0, 1].
	Prob float64
	// After / Until bound the active window in virtual time
	// (Until 0 = no end).
	After, Until simtime.Time
	// Max caps the number of faults this rule may inject (0 = unlimited).
	Max int
}

// Crash fails a whole machine at a virtual-time instant: its frames
// (including shadow pages of registered state) become unreadable and RPCs
// to it fail, so consumers of its state see remote-fault errors.
type Crash struct {
	Machine memsim.MachineID
	At      simtime.Time
}

// Partition severs the directed link From→To during a virtual-time
// window: operations issued by From against To fail with ErrPartitioned
// while the window is open. Partitions are asymmetric — sever both
// directions with two entries — which is what makes crash vs. partition
// distinguishable: a crashed machine refuses everyone forever, a
// partitioned one only refuses some peers for a while.
type Partition struct {
	From, To memsim.MachineID
	After    simtime.Time
	Until    simtime.Time // 0 = never lifts
}

// CoordCrash fails the control-plane coordinator at a virtual-time
// instant. Unlike a machine Crash it is recoverable in-run: at RecoverAt
// (0 = never) the coordinator reloads its journal, bumps its epoch, and
// reconciles against live kernels. While down, in-flight workflows keep
// running on the data plane and new submissions are shed.
type CoordCrash struct {
	At        simtime.Time
	RecoverAt simtime.Time // 0 = stays down for the rest of the run
}

// CoordPartition severs the directed link between one machine and the
// coordinator during a virtual-time window: control-plane operations
// originating from that machine's pods are deferred (backlogged) while
// the window is open. Machine AnyMachine severs every machine.
type CoordPartition struct {
	Machine memsim.MachineID
	After   simtime.Time
	Until   simtime.Time // 0 = never lifts
}

// Plan is a complete seeded fault schedule.
type Plan struct {
	Seed            uint64
	Rules           []Rule
	Crashes         []Crash
	Partitions      []Partition
	CoordCrashes    []CoordCrash
	CoordPartitions []CoordPartition
}

// Injector evaluates a Plan deterministically. It is safe for concurrent
// use, and — unlike a single shared PRNG — its draw sequences are
// order-independent: each (rule, target, requester) triple owns a
// counter-based stream, so the nth operation a given requester issues at a
// given site sees the same draw no matter how operations from other
// machines interleave with it. That is what keeps chaos runs byte-identical
// under the parallel engine, where worker goroutines from different
// machines consult the injector concurrently.
//
// Rule.Max remains a global per-rule cap applied in arrival order; with
// concurrent callers the set of operations a nearly-exhausted cap admits
// can depend on scheduling. Plans that need exact parallel determinism
// should express budgets via Prob/After/Until windows instead of Max.
type Injector struct {
	mu      sync.Mutex
	rules   []Rule
	fired   []int // per-rule injection counts
	seed    uint64
	draws   map[streamKey]uint64 // per-stream operation counters
	drawn   uint64               // total PRNG draws across all streams
	clock   func() simtime.Time
	bySite  [numSites]int
	total   int
	crashes []Crash
	parts   []Partition

	coordCrashes []CoordCrash
	coordParts   []CoordPartition
}

// streamKey identifies one deterministic draw stream.
type streamKey struct {
	rule      int
	target    memsim.MachineID
	requester memsim.MachineID
}

// NewInjector builds an injector for plan; clock supplies the current
// virtual time (nil means time 0, which keeps window-free plans working).
func NewInjector(plan Plan, clock func() simtime.Time) *Injector {
	return &Injector{
		rules:   append([]Rule(nil), plan.Rules...),
		fired:   make([]int, len(plan.Rules)),
		seed:    plan.Seed + 0x9e3779b97f4a7c15, // non-zero even for seed 0
		draws:   make(map[streamKey]uint64),
		clock:   clock,
		crashes: append([]Crash(nil), plan.Crashes...),
		parts:   append([]Partition(nil), plan.Partitions...),

		coordCrashes: append([]CoordCrash(nil), plan.CoordCrashes...),
		coordParts:   append([]CoordPartition(nil), plan.CoordPartitions...),
	}
}

// Crashes returns the plan's machine-crash schedule (for arming on a
// simulator — see platform.NewChaosCluster).
func (in *Injector) Crashes() []Crash { return in.crashes }

// CoordCrashes returns the plan's coordinator crash/recovery schedule
// (armed by the engine, which owns the coordinator).
func (in *Injector) CoordCrashes() []CoordCrash { return in.coordCrashes }

// CoordPartitions returns the plan's coordinator-partition windows (the
// engine arms a backlog drain at each window's end).
func (in *Injector) CoordPartitions() []CoordPartition { return in.coordParts }

// CheckCoordinator consults the SiteCoordinator rules for one
// control-plane operation issued on behalf of requester. Like Check, each
// matching active rule advances one per-(rule, target, requester) stream,
// so the decision is a pure function of the plan.
func (in *Injector) CheckCoordinator(requester memsim.MachineID, endpoint string) error {
	return in.Check(SiteCoordinator, CoordinatorTarget, requester, endpoint)
}

// CoordPartitioned reports whether the directed link machine→coordinator
// is inside an open coordinator-partition window. Deterministic schedule,
// no PRNG draw and no refusal count — the engine uses it to decide
// whether to defer a control-plane operation, not to fail one.
func (in *Injector) CoordPartitioned(machine memsim.MachineID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	now := in.now()
	for _, p := range in.coordParts {
		if p.Machine != AnyMachine && p.Machine != machine {
			continue
		}
		if now >= p.After && (p.Until == 0 || now < p.Until) {
			return true
		}
	}
	return false
}

func (in *Injector) now() simtime.Time {
	if in.clock == nil {
		return 0
	}
	return in.clock()
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// streamDraw returns the nth uniform [0,1) draw of one stream: a pure
// function of (seed, rule index, target, requester, n), independent of any
// other stream's progress.
func streamDraw(seed uint64, k streamKey, n uint64) float64 {
	x := mix64(seed + uint64(k.rule)*0x9e3779b97f4a7c15)
	x = mix64(x + uint64(int64(k.target))*0xbf58476d1ce4e5b9)
	x = mix64(x + uint64(int64(k.requester))*0x94d049bb133111eb)
	x = mix64(x + n*0x9e3779b97f4a7c15)
	return float64(x>>11) / (1 << 53)
}

// Check consults the plan for one operation issued by requester against
// target: it returns a wrapped ErrInjected if any active rule fires, nil
// otherwise. Each matching active rule advances exactly one per-(rule,
// target, requester) stream counter, so the fault decision for "requester
// R's nth matching operation" is a pure function of the plan — the same
// under any interleaving of other requesters' operations.
func (in *Injector) Check(site Site, target, requester memsim.MachineID, endpoint string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	now := in.now()
	for i, r := range in.rules {
		if r.Site != site {
			continue
		}
		if r.Target != AnyMachine && r.Target != target {
			continue
		}
		if r.Endpoint != "" && r.Endpoint != endpoint {
			continue
		}
		if now < r.After || (r.Until != 0 && now >= r.Until) {
			continue
		}
		if r.Max > 0 && in.fired[i] >= r.Max {
			continue
		}
		k := streamKey{rule: i, target: target, requester: requester}
		n := in.draws[k]
		in.draws[k] = n + 1
		in.drawn++
		if streamDraw(in.seed, k, n) >= r.Prob {
			continue
		}
		in.fired[i]++
		in.bySite[site]++
		in.total++
		return fmt.Errorf("%w: %v machine %d %s at %v",
			ErrInjected, site, target, endpoint, simtime.Duration(now))
	}
	return nil
}

// CrashedNow reports whether target's scheduled crash instant has passed.
// FaultFabric consults it before the probabilistic rules so operations
// against a permanently dead machine fail fast with ErrMachineCrashed
// instead of burning retry budget on injected "transient" faults that can
// never clear. Crash awareness consumes no PRNG draws.
func (in *Injector) CrashedNow(target memsim.MachineID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	now := in.now()
	for _, cr := range in.crashes {
		if cr.Machine == target && now >= cr.At {
			return true
		}
	}
	return false
}

// CheckPartition consults the partition schedule for one directed
// operation from→to. An open window returns a wrapped ErrPartitioned and
// counts under SitePartition; partitions are deterministic schedules, not
// probabilistic rules, so no PRNG draw is consumed.
func (in *Injector) CheckPartition(from, to memsim.MachineID) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	now := in.now()
	for _, p := range in.parts {
		if p.From != from || p.To != to {
			continue
		}
		if now < p.After || (p.Until != 0 && now >= p.Until) {
			continue
		}
		in.bySite[SitePartition]++
		in.total++
		return &PartitionError{From: from, To: to, At: now}
	}
	return nil
}

// Partitioned reports whether the directed link from→to is currently
// inside an open partition window, without counting a refusal.
func (in *Injector) Partitioned(from, to memsim.MachineID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	now := in.now()
	for _, p := range in.parts {
		if p.From == from && p.To == to &&
			now >= p.After && (p.Until == 0 || now < p.Until) {
			return true
		}
	}
	return false
}

// Draws reports the total number of PRNG draws consumed across all streams.
// Crash and partition checks never draw; the fast-fail regression tests pin
// that by asserting this counter stays flat across a known-bad window.
func (in *Injector) Draws() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.drawn
}

// Injected reports how many faults were injected at one site.
func (in *Injector) Injected(site Site) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.bySite[site]
}

// Total reports all injected faults.
func (in *Injector) Total() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total
}
