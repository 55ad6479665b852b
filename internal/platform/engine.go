package platform

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"

	"rmmap/internal/admit"
	"rmmap/internal/ctrl"
	"rmmap/internal/kernel"
	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/rdma"
	"rmmap/internal/sim"
	"rmmap/internal/simtime"
	"rmmap/internal/transport"
)

// ClusterConfig sizes the physical substrate for a run. Spec, when set,
// carries a full build specification (topology, fabrics, chaos) from the
// platformbuilder layer; Machines must then match the spec.
type ClusterConfig struct {
	Machines int
	Pods     int
	Spec     *ClusterSpec
}

// DefaultClusterConfig mirrors the paper's 10-machine testbed with 8
// execution slots per machine.
func DefaultClusterConfig() ClusterConfig { return ClusterConfig{Machines: 10, Pods: 80} }

// Engine executes workflows on a cluster under one transfer mode. It plays
// the coordinator's role: invoking functions when their inputs are ready,
// carrying state metadata between pods, and reclaiming registered memory.
type Engine struct {
	Cluster *Cluster
	Plan    *Plan
	wf      *Workflow
	mode    Mode
	opts    Options

	msg   *transport.Messaging
	store transport.Store
	cds   *objrt.CDS

	pods      []*Pod
	activated int // high-water mark of pods ever used
	queue     []*invocation

	// Dispatch indexes: freePods is a lazy-deletion min-heap of free pods
	// by ID, warm maps a slot to the pods holding its warm container, and
	// byMachine lists pods per machine (pinned placement). Together they
	// replace the O(pods) scan per queued invocation.
	freePods  podHeap
	warm      map[SlotID]map[int]*Pod
	byMachine map[memsim.MachineID][]*Pod

	nextReg  uint64
	requests int

	// Control plane (internal/ctrl, DESIGN.md §13): coord is the journaled
	// coordinator holding the registration directory, issued address plan,
	// and pod placements in simulated durable storage; ctrlBacklog holds
	// operations deferred while it was down or the requester partitioned
	// (strict FIFO, drained at recovery and completion events);
	// gossipRound rotates the failure detector's probe targets across
	// rounds and gossipRounds counts them.
	coord        *ctrl.Coordinator
	ctrlBacklog  []ctrlOp
	gossipRound  int
	gossipRounds int

	// textFrames shares the resident library (text) frames between
	// containers of the same function type on the same machine — the
	// page cache's role for read-only mappings. Without sharing, every
	// warm container would hold a private copy of its libraries.
	// textMu guards the map: worker-phase invocations on different
	// machines insert under different keys but share the map itself.
	textMu     sync.Mutex
	textFrames map[textKey][]memsim.PFN

	// warmMu guards the warm index's map structure: invocations running
	// on different machines during a batch's worker phase touch disjoint
	// slots but share the outer map. Reads (pickPod) happen only on the
	// simulator thread, never during a worker phase.
	warmMu sync.Mutex

	// schedSinks journals kernel scheduling requests (replication pushes
	// requested by RegisterMem) during a batch's worker phase: slot i is
	// non-nil exactly while machine i's group is executing, and points at
	// the item currently running there. Journaled entries are replayed
	// onto the simulator at commit time, in canonical batch order, so the
	// event sequence matches the sequential engine's exactly.
	schedSinks []*execItem

	// maxRegLifetime drives the pods' lease scanner (§4.2's backstop for
	// registrations the coordinator never reclaims); 0 disables it.
	maxRegLifetime simtime.Duration
	scannersLive   bool

	// disableEpochFence turns off coordinator-epoch fencing on kernels:
	// recoveries do not broadcast the bumped epoch and reclamation orders
	// go out unfenced, so a zombie pre-crash coordinator's stale commands
	// execute. The negative control for the coordinator chaos tests
	// (DESIGN.md §13).
	disableEpochFence bool

	// Failure detector (leases + heartbeats, wired when replication is
	// on): every HeartbeatPeriod each live kernel probes its peers so a
	// crash or partition is learned proactively, not on the read path.
	leasesOn     bool
	detectorLive bool
	inflight     int // requests started but not yet completed

	// Admission control (Options.Admission): admitCtrl makes every decision
	// on the simulator thread; pubAdmit remembers the stats already published
	// to Options.Obs so only deltas are added (same scheme as published).
	admitCtrl *admit.Controller
	pubAdmit  admit.Stats

	// published remembers the cluster-cumulative counters (cache stats,
	// replicated bytes, lease expiries) as of the last PublishRun, so
	// collect publishes only each request's delta. Without it, every
	// completed request would re-add the whole cluster lifetime into
	// Options.Obs — quadratic inflation over sequential/open-loop runs.
	published struct {
		cache      kernel.CacheStats
		replicated int64
		leases     int
		ctrlStats  ctrl.Stats
		gossip     int
	}
}

type nodeKey struct {
	fn   string
	inst int
}

func (n nodeKey) String() string { return fmt.Sprintf("%s#%d", n.fn, n.inst) }

// statePayload is what travels (conceptually, via the coordinator) from a
// finished producer to its consumers.
type statePayload struct {
	from     nodeKey
	mode     Mode // actual mechanism (may be messaging fallback)
	pickled  []byte
	storeKey string
	meta     kernel.VMMeta
	rootAddr uint64
	prefetch []memsim.VPN

	// consumers counts instances that have yet to finish with this
	// state; at zero the coordinator reclaims it (deregister_mem for
	// rmmap, buffer frames for messaging/storage).
	consumers int
	// bufPFNs are the serialized-buffer frames the state occupies while
	// in flight (§5.6: messaging and storage "need additional memory to
	// store the message buffers"; RMMAP does not).
	bufPFNs    []memsim.PFN
	bufMachine *memsim.Machine
}

// allocBuffer reserves page frames for n bytes of serialized state.
func (p *statePayload) allocBuffer(m *memsim.Machine, n int) {
	pages := (n + memsim.PageSize - 1) / memsim.PageSize
	p.bufMachine = m
	for i := 0; i < pages; i++ {
		p.bufPFNs = append(p.bufPFNs, m.AllocFrame())
	}
}

func (p *statePayload) freeBuffer() {
	for _, pfn := range p.bufPFNs {
		p.bufMachine.Unref(pfn)
	}
	p.bufPFNs = nil
}

type invocation struct {
	req  *request
	node nodeKey
	// redo marks a producer re-execution scheduled by the recovery
	// ladder: its payload goes only to the parked waiters (deliverRedo)
	// and its completion does not count against request progress.
	redo bool
}

// schedEntry is one journaled kernel-scheduling request: replication work
// a kernel asked to defer (via its replSched hook) while an invocation was
// executing on a worker goroutine. It is replayed onto the simulator at
// commit time so event sequence numbers match the sequential engine.
type schedEntry struct {
	d  simtime.Duration
	fn func()
}

// execItem carries one dispatched invocation through a batch: formed on
// the simulator thread (pod already assigned), executed on a worker
// goroutine (meter, payload, error, per-machine counter deltas), and
// committed back on the simulator thread in canonical batch order.
// Everything an invocation would have mutated on shared engine state is
// captured here instead and applied at commit, which is what makes the
// worker phase side-effect-free outside the consumer machine it owns.
type execItem struct {
	inv *invocation
	pod *Pod
	// regSeq is the invocation's pre-assigned registration sequence
	// number, drawn on the simulator thread at batch formation so ID/key
	// values are independent of worker interleaving. Invocations that end
	// up not registering simply burn their number.
	regSeq uint64

	// Filled by the worker phase.
	meter      *simtime.Meter
	out        *statePayload
	err        error
	retries    int
	failovers  int
	fallbacks  int
	cacheDelta kernel.CacheStats
	// sched journals the kernel's deferred-scheduling calls in issue order.
	sched []schedEntry
	// linkUses journals the invocation's shared-link occupancy (multi-rack
	// topologies only), replayed against global link state at commit so
	// queueing waits are deterministic at any worker count (DESIGN.md §14).
	linkUses []rdma.LinkUse
	// commits are engine-map mutations (registration table inserts,
	// forwarded-ACL extensions) deferred to the commit phase.
	commits []func()
	// reports are Ctx.Report values in call order, applied at commit.
	reports []any
}

// request tracks one workflow execution.
type request struct {
	id     int
	tenant string
	// deadline is the request's absolute virtual-time deadline (0 = none).
	// It is checked only at event boundaries — virtual time is frozen
	// inside a synchronous invocation — and at recovery-ladder park points,
	// where a rung may not schedule a retry past it.
	deadline simtime.Time
	// deadlineHit marks a mid-run deadline shed: the request drained via
	// the error path with a ReasonDeadline ShedError.
	deadlineHit bool
	start       simtime.Time
	pending     map[nodeKey]int
	inputs      map[nodeKey][]*statePayload
	meters      map[nodeKey]*simtime.Meter
	remaining   int
	result      any
	err         error
	done        func(*request)
	spans       []Span

	// Recovery state (see recovery.go).
	reexecs        int
	retries        int
	fallbacks      int
	failovers      int
	partitionWaits int
	redoFor        map[nodeKey][]*invocation
	edgeFails      map[edgeKey]int
	degraded       map[edgeKey]bool
}

// RunResult reports one request's outcome.
type RunResult struct {
	// Tenant is the submitting tenant ("" without multi-tenant admission).
	Tenant string
	// Shed marks a request the overload layer rejected or abandoned —
	// at admission, in the queue, or mid-run on a deadline. Err then
	// carries an *admit.ShedError and ShedReason its reason string.
	Shed       bool
	ShedReason string
	// DeadlineExceeded marks a deadline shed specifically (queue expiry or
	// a recovery rung that could not finish in time).
	DeadlineExceeded bool
	Latency          simtime.Duration
	// Meter aggregates all function meters (the workflow's total work;
	// latency can be lower due to parallelism).
	Meter *simtime.Meter
	// PerFunction aggregates meters by function type.
	PerFunction map[string]*simtime.Meter
	// Output is whatever sink handlers reported.
	Output any
	Err    error
	// Trace holds per-invocation spans when Options.Trace is set.
	Trace []Span
	// Recovery accounting (nonzero only under faults): transport retry
	// attempts, rmap→messaging degradations, producer re-executions,
	// replica failovers, and partition-wait retries.
	Retries        int
	Fallbacks      int
	Reexecs        int
	Failovers      int
	PartitionWaits int
	// Replication accounting (nonzero only with Options.Replicas):
	// cluster-cumulative bytes pushed to backups and leases that aged out
	// without crash evidence.
	ReplicatedBytes int64
	LeaseExpiries   int
	// Cache snapshots the cluster's remote-page-cache and readahead
	// counters at completion time (cumulative across the cluster's life;
	// per-invocation deltas are on the trace spans).
	Cache kernel.CacheStats
	// Ctrl snapshots the coordinator's cumulative activity counters —
	// journal appends and bytes, snapshots, replays, epoch bumps,
	// recoveries, deferred operations, reconciliation drift (DESIGN.md
	// §13). Cumulative like Cache; PublishRun receives per-run deltas.
	Ctrl ctrl.Stats
	// GossipRounds counts completed failure-detector gossip rounds
	// (cumulative across the engine's life).
	GossipRounds int
}

// NewEngine builds an engine for one workflow and transfer mode on a fresh
// cluster.
func NewEngine(wf *Workflow, mode Mode, opts Options, cfg ClusterConfig) (*Engine, error) {
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	if cfg.Machines <= 0 || cfg.Pods <= 0 {
		return nil, fmt.Errorf("platform: bad cluster config %+v", cfg)
	}
	if cfg.Spec != nil {
		if cfg.Spec.Machines != cfg.Machines {
			return nil, fmt.Errorf("platform: cluster spec has %d machines, config asks for %d",
				cfg.Spec.Machines, cfg.Machines)
		}
		cl, err := BuildCluster(*cfg.Spec)
		if err != nil {
			return nil, err
		}
		return NewEngineOn(cl, wf, mode, opts, cfg.Pods)
	}
	cm := simtime.DefaultCostModel()
	return NewEngineOn(NewCluster(cfg.Machines, cm), wf, mode, opts, cfg.Pods)
}

// NewEngineOn builds an engine on an existing cluster (so experiments can
// tweak the cost model first).
func NewEngineOn(cluster *Cluster, wf *Workflow, mode Mode, opts Options, pods int) (*Engine, error) {
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	plan, err := GeneratePlan(wf)
	if err != nil {
		return nil, err
	}
	cm := cluster.CM
	e := &Engine{
		Cluster:    cluster,
		Plan:       plan,
		wf:         wf,
		mode:       mode,
		opts:       opts,
		msg:        transport.NewMessaging(cm),
		cds:        objrt.DefaultCDS(),
		textFrames: make(map[textKey][]memsim.PFN),
		warm:       make(map[SlotID]map[int]*Pod),
		byMachine:  make(map[memsim.MachineID][]*Pod),
		schedSinks: make([]*execItem, len(cluster.Machines)),
	}
	if opts.Admission != nil {
		e.admitCtrl = admit.NewController(*opts.Admission)
	}
	// Per-run page-cache/readahead knobs (zero value keeps the cluster
	// defaults wired by NewCluster).
	for _, k := range cluster.Kernels {
		if opts.NoPageCache {
			k.EnablePageCache(0)
		} else if opts.PageCacheBytes > 0 {
			k.EnablePageCache(opts.PageCacheBytes)
		}
		if opts.NoReadahead {
			k.SetReadahead(0)
		}
	}
	// Replication + leases: machine i replicates to the next reps machines
	// (ring placement), every kernel tracks peer liveness, and a lease
	// expiry broadcasts cache invalidation exactly like deregister_mem
	// does — the suspect producer may have re-registered behind the
	// partition. Crashed machines' cached pages are retained instead:
	// with a replica holding the authoritative bytes, generation-fenced
	// cache entries stay valid hits for failed-over consumers.
	if reps := opts.replicas(len(cluster.Machines)); reps > 0 {
		n := len(cluster.Machines)
		cluster.retainCrashedPages = true
		e.leasesOn = true
		for i, k := range cluster.Kernels {
			backups := make([]memsim.MachineID, 0, reps)
			for j := 1; j <= reps; j++ {
				backups = append(backups, memsim.MachineID((i+j)%n))
			}
			k.EnableReplication(backups, e.replScheduler(memsim.MachineID(i)))
			k.EnableLeases(cm.LeaseTTL)
			k.OnLeaseExpired = cluster.invalidateMachine
		}
	}
	e.msg.ZeroCost = opts.ZeroNetwork
	switch mode {
	case ModeStoragePocket:
		e.store = transport.NewPocket(cm)
	case ModeStorageDrTM:
		e.store = transport.NewDrTM(cm)
	}
	if opts.ZeroNetwork && e.store != nil {
		e.store = transport.NewZeroCostStore()
	}
	for i := 0; i < pods; i++ {
		m := cluster.Machines[i%len(cluster.Machines)]
		p := &Pod{
			ID: i, Machine: m, Kernel: cluster.Kernels[int(m.ID())],
			cache: make(map[SlotID]*Container),
		}
		e.pods = append(e.pods, p)
		e.byMachine[m.ID()] = append(e.byMachine[m.ID()], p)
		p.inFree = true
		e.freePods = append(e.freePods, p) // already ID-ordered
	}
	for _, f := range wf.Functions {
		if f.PinMachine == nil {
			continue
		}
		if *f.PinMachine < 0 || *f.PinMachine >= len(cluster.Machines) {
			return nil, fmt.Errorf("platform: function %q pinned to machine %d of %d",
				f.Name, *f.PinMachine, len(cluster.Machines))
		}
		if len(e.byMachine[memsim.MachineID(*f.PinMachine)]) == 0 {
			return nil, fmt.Errorf("platform: function %q pinned to machine %d, which has no pods",
				f.Name, *f.PinMachine)
		}
	}
	// The control plane: a journaled coordinator seeded with the address
	// plan and pod placements, its chaos schedule (if any) armed on the
	// simulator — events fire inside Run, never during construction.
	e.coord = ctrl.New(cm)
	if err := e.seedCoordinator(); err != nil {
		return nil, err
	}
	e.armCoordinatorFaults()
	return e, nil
}

// Mode returns the engine's transfer mode.
func (e *Engine) Mode() Mode { return e.mode }

// ActivatedPods reports how many pods have been used at least once.
func (e *Engine) ActivatedPods() int { return e.activated }

// BusyPods reports currently executing pods.
func (e *Engine) BusyPods() int {
	n := 0
	for _, p := range e.pods {
		if p.busy {
			n++
		}
	}
	return n
}

// QueueLen reports invocations waiting for a pod.
func (e *Engine) QueueLen() int { return len(e.queue) }

// Submit enqueues one workflow request at the current virtual time; done
// fires at completion. Use Run for the common single-request case. With
// Options.Admission set the request passes the overload layer first (as
// the anonymous tenant ""); SubmitTenant carries tenant and deadline.
func (e *Engine) Submit(done func(RunResult)) {
	e.SubmitTenant(SubmitInfo{}, done)
}

// startRequest begins executing one admitted workflow request. It must run
// on the simulator thread.
func (e *Engine) startRequest(tenant string, deadline simtime.Time, done func(RunResult)) {
	e.requests++
	req := &request{
		id:        e.requests,
		tenant:    tenant,
		deadline:  deadline,
		start:     e.Cluster.Sim.Now(),
		pending:   make(map[nodeKey]int),
		inputs:    make(map[nodeKey][]*statePayload),
		meters:    make(map[nodeKey]*simtime.Meter),
		redoFor:   make(map[nodeKey][]*invocation),
		edgeFails: make(map[edgeKey]int),
		degraded:  make(map[edgeKey]bool),
	}
	e.inflight++
	req.done = func(r *request) {
		e.inflight--
		if e.admitCtrl != nil {
			out := admit.OutcomeOK
			if r.deadlineHit {
				out = admit.OutcomeDeadline
			}
			e.admitCtrl.Record(0, "", out)
			e.publishAdmission()
		}
		if done != nil {
			done(e.collect(r))
		}
		e.pumpAdmission()
	}
	for _, f := range e.wf.Functions {
		deps := 0
		for _, p := range e.wf.Producers(f.Name) {
			deps += e.wf.Function(p).Instances
		}
		for i := 0; i < f.Instances; i++ {
			req.pending[nodeKey{f.Name, i}] = deps
			req.remaining++
		}
	}
	for _, src := range e.wf.Sources() {
		for i := 0; i < e.wf.Function(src).Instances; i++ {
			e.queue = append(e.queue, &invocation{req: req, node: nodeKey{src, i}})
		}
	}
	if e.maxRegLifetime > 0 {
		e.startLeaseScanners()
	}
	if e.leasesOn {
		e.startFailureDetector()
	}
	e.dispatch()
}

// startFailureDetector drives the kernels' heartbeat probes as SWIM-lite
// rounds: every HeartbeatPeriod each live machine probes gossipFanout
// rotating peers (round r, probe j targets the (r*fanout+j) mod (n-1)'th
// successor), so with the default 25µs period and fanout 2 every peer is
// probed first-hand at least every 2 rounds — inside the 100µs lease TTL —
// at 2n probes per round instead of the old full mesh's n·(n-1). Probes
// piggyback death certificates both ways (kernel.Heartbeat), which is what
// spreads crash evidence cluster-wide without a central scan: detection
// keeps working while the coordinator is down. Probes ride the same
// (fault-wrapped) transport as real traffic, so partitions block them and
// crashes fail them — exactly the evidence the lease state machine wants.
// The loop stops once no request is in flight so the simulator's event
// queue can drain; Submit re-arms it, and gossipRound persists across
// re-arms so the probe rotation (and with it every artifact) stays a pure
// function of the event sequence.
func (e *Engine) startFailureDetector() {
	if e.detectorLive {
		return
	}
	e.detectorLive = true
	period := e.Cluster.CM.HeartbeatPeriod
	if period <= 0 {
		period = 25 * simtime.Microsecond
	}
	const gossipFanout = 2
	n := len(e.Cluster.Machines)
	fanout := gossipFanout
	if fanout > n-1 {
		fanout = n - 1
	}
	s := e.Cluster.Sim
	s.Every(s.Now().Add(period), period, func() bool {
		if e.inflight == 0 {
			e.detectorLive = false
			return false
		}
		if fanout <= 0 {
			return true
		}
		r := e.gossipRound
		e.gossipRound++
		e.gossipRounds++
		for i, k := range e.Cluster.Kernels {
			if e.Cluster.Machines[i].Crashed() {
				continue
			}
			for j := 0; j < fanout; j++ {
				idx := (r*fanout + j) % (n - 1)
				peer := e.Cluster.Machines[(i+1+idx)%n]
				_ = k.Heartbeat(peer.ID())
			}
		}
		return true
	})
}

func (e *Engine) collect(r *request) RunResult {
	res := RunResult{
		Tenant:         r.tenant,
		Latency:        e.Cluster.Sim.Now().Sub(r.start),
		Meter:          simtime.NewMeter(),
		PerFunction:    make(map[string]*simtime.Meter),
		Output:         r.result,
		Err:            r.err,
		Trace:          r.spans,
		Retries:        r.retries,
		Fallbacks:      r.fallbacks,
		Reexecs:        r.reexecs,
		Failovers:      r.failovers,
		PartitionWaits: r.partitionWaits,
		Cache:          e.Cluster.CacheStats(),
	}
	res.ReplicatedBytes = e.Cluster.ReplicatedBytes()
	res.LeaseExpiries = e.Cluster.LeaseExpiries()
	res.Ctrl = e.coord.Stats()
	res.GossipRounds = e.gossipRounds
	if r.deadlineHit {
		res.Shed = true
		res.ShedReason = admit.ReasonDeadline.String()
		res.DeadlineExceeded = true
	}
	for node, m := range r.meters {
		res.Meter.AddAll(m)
		agg := res.PerFunction[node.fn]
		if agg == nil {
			agg = simtime.NewMeter()
			res.PerFunction[node.fn] = agg
		}
		agg.AddAll(m)
	}
	if e.opts.Obs != nil {
		// RunResult carries cluster-lifetime cumulative totals for the
		// cache/replication/lease counters; the registry accumulates
		// across calls, so publish only this request's delta.
		pub := res
		pub.Cache = res.Cache.Sub(e.published.cache)
		pub.Cache.LiveBytes = res.Cache.LiveBytes // gauge, not a delta
		pub.ReplicatedBytes = res.ReplicatedBytes - e.published.replicated
		pub.LeaseExpiries = res.LeaseExpiries - e.published.leases
		pub.Ctrl = res.Ctrl.Sub(e.published.ctrlStats)
		pub.GossipRounds = res.GossipRounds - e.published.gossip
		e.published.cache = res.Cache
		e.published.replicated = res.ReplicatedBytes
		e.published.leases = res.LeaseExpiries
		e.published.ctrlStats = res.Ctrl
		e.published.gossip = res.GossipRounds
		PublishRun(e.opts.Obs, e.wf.Name, e.mode.String(), pub)
	}
	return res
}

// Run executes a single request to completion and returns its result.
func (e *Engine) Run() (RunResult, error) {
	var out RunResult
	got := false
	e.Submit(func(r RunResult) { out = r; got = true })
	e.Cluster.Sim.Run()
	if !got {
		return out, fmt.Errorf("platform: request did not complete (deadlock?)")
	}
	return out, out.Err
}

func (e *Engine) startLeaseScanners() {
	if e.scannersLive {
		return
	}
	e.scannersLive = true
	period := e.maxRegLifetime
	live := len(e.Cluster.Kernels)
	for _, k := range e.Cluster.Kernels {
		k := k
		e.Cluster.Sim.Every(e.Cluster.Sim.Now().Add(period), period, func() bool {
			k.ScanExpired(e.maxRegLifetime)
			// Stop once there is nothing left to watch, so the
			// simulator's event queue can drain; Submit re-arms.
			if k.Registrations() == 0 {
				live--
				if live == 0 {
					e.scannersLive = false
				}
				return false
			}
			return true
		})
	}
}

// replScheduler returns the deferred-work scheduler wired into machine
// mid's kernel (EnableReplication). During a batch's worker phase the
// machine's group owns the kernel, so scheduling requests are journaled on
// the running item and replayed at commit in canonical order; outside a
// phase (replication steps, lease events — all simulator-thread work) they
// go straight to the simulator.
func (e *Engine) replScheduler(mid memsim.MachineID) func(simtime.Duration, func()) {
	return func(d simtime.Duration, fn func()) {
		if it := e.schedSinks[mid]; it != nil {
			it.sched = append(it.sched, schedEntry{d: d, fn: fn})
			return
		}
		e.Cluster.Sim.After(d, fn)
	}
}

// dispatch assigns queued invocations to free pods (cache-affinity first,
// then lowest pod ID), batching the eligible frontier: pod assignment is
// sequential in queue order (preserving head-of-line blocking), then the
// batch executes grouped by machine — in parallel when Options.Workers
// allows — and commits effects in canonical batch order. See DESIGN.md §10
// for why the result is byte-identical at any worker count.
func (e *Engine) dispatch() {
	for {
		batch := e.formBatch()
		if len(batch) == 0 {
			return // no eligible pod or empty queue; completions re-dispatch
		}
		e.runBatch(batch)
	}
}

// formBatch pops dispatchable invocations off the queue head, exactly as
// the sequential engine did between executions: stop at the first
// invocation with no eligible pod. Pod state consulted here (busy flags,
// warm index, free heap, crash flags) cannot change while a batch forms —
// it only changes at completion events — so batch-time picks equal the
// sequential engine's interleaved picks.
func (e *Engine) formBatch() []*execItem {
	var batch []*execItem
	for len(e.queue) > 0 {
		inv := e.queue[0]
		slot := SlotID{inv.node.fn, inv.node.inst}
		pod := e.pickPod(slot, e.wf.Function(inv.node.fn).PinMachine, e.preferredRack(inv))
		if pod == nil {
			break
		}
		e.queue = e.queue[1:]
		pod.busy = true
		if !pod.everUsed() {
			e.activated++
			pod.markUsed()
		}
		e.nextReg++
		batch = append(batch, &execItem{inv: inv, pod: pod, regSeq: e.nextReg})
	}
	return batch
}

// runBatch executes a formed batch and commits it. Items are grouped by
// their pod's machine: a group owns its machine's kernel, page cache, NIC
// and frame table exclusively for the phase (cross-machine interactions are
// limited to immutable shadow-frame reads, mutex-protected commutative
// telemetry, and k.mu-serialized producer RPC handlers whose replies are
// order-independent), so groups can run on separate goroutines. Each group
// is internally sequential in batch order; commits then run on the
// simulator thread in canonical batch order, reproducing the sequential
// engine's event sequence exactly.
func (e *Engine) runBatch(batch []*execItem) {
	groups := make(map[memsim.MachineID][]*execItem)
	var order []memsim.MachineID
	for _, it := range batch {
		mid := it.pod.Machine.ID()
		if _, ok := groups[mid]; !ok {
			order = append(order, mid)
		}
		groups[mid] = append(groups[mid], it)
	}
	runGroup := func(mid memsim.MachineID, items []*execItem) {
		for _, it := range items {
			e.schedSinks[mid] = it
			e.executeItem(it)
		}
		e.schedSinks[mid] = nil
	}
	// Multi-rack topologies journal link occupancy during the phase (the
	// journaling happens in both the sequential and parallel paths, so
	// queueing waits replay identically at any worker count).
	if topo := e.Cluster.Topo; topo != nil {
		for _, mid := range order {
			topo.BeginDeferred(mid)
		}
	}
	if w := e.opts.workerCount(); w <= 1 || len(order) == 1 {
		for _, mid := range order {
			runGroup(mid, groups[mid])
		}
	} else {
		fns := make([]func(), 0, len(order))
		for _, mid := range order {
			mid, items := mid, groups[mid]
			fns = append(fns, func() { runGroup(mid, items) })
		}
		sim.RunGroups(w, fns)
	}
	if topo := e.Cluster.Topo; topo != nil {
		for _, mid := range order {
			topo.EndDeferred(mid)
		}
	}
	for _, it := range batch {
		e.commit(it)
	}
}

// preferredRack resolves rack-local placement (Options.RackLocal): the
// rack holding the producer of the invocation's first rmap input, so the
// consumer's demand faults stay under one ToR instead of crossing the
// spine. -1 means no preference (flat cluster, option off, or no rmap
// input). It runs on the simulator thread during batch formation, where
// req.inputs is stable.
func (e *Engine) preferredRack(inv *invocation) int {
	if !e.opts.RackLocal || e.Cluster.Topo == nil {
		return -1
	}
	for _, in := range inv.req.inputs[inv.node] {
		if in.mode.IsRMMAP() {
			return e.Cluster.Topo.RackOf(in.meta.Machine)
		}
	}
	return -1
}

// pickPod selects the pod for one invocation: the lowest-ID free pod
// holding the slot's warm container wins (cache affinity), then pinned
// functions scan their machine's pods, then — under rack-local placement —
// the preferred rack's lowest-ID free pod, then the free-pod heap yields
// the lowest-ID free pod. Crashed machines take no new work; their frames
// (and warm containers) are gone.
func (e *Engine) pickPod(slot SlotID, pin *int, prefRack int) *Pod {
	var best *Pod
	for _, p := range e.warm[slot] {
		if p.busy || p.Machine.Crashed() {
			continue
		}
		if pin != nil && int(p.Machine.ID()) != *pin {
			continue
		}
		if best == nil || p.ID < best.ID {
			best = p
		}
	}
	if best != nil {
		return best
	}
	if pin != nil {
		for _, p := range e.byMachine[memsim.MachineID(*pin)] {
			if !p.busy && !p.Machine.Crashed() {
				return p
			}
		}
		return nil
	}
	if prefRack >= 0 {
		// Rack-local placement: lowest-ID free pod on any machine in the
		// preferred rack. Entries may still sit in the free heap; the
		// heap's lazy deletion discards them on pop, exactly like pods
		// taken via the warm or pin paths.
		for _, mid := range e.Cluster.Topo.RackMachines(prefRack) {
			for _, p := range e.byMachine[mid] {
				if p.busy || p.Machine.Crashed() {
					continue
				}
				if best == nil || p.ID < best.ID {
					best = p
				}
			}
		}
		if best != nil {
			return best
		}
	}
	for e.freePods.Len() > 0 {
		p := heap.Pop(&e.freePods).(*Pod)
		p.inFree = false
		if p.busy || p.Machine.Crashed() {
			continue // stale entry (taken via warm/pin path) or dead pod
		}
		return p
	}
	return nil
}

// podFreed returns a pod to the free heap after its invocation completes.
func (e *Engine) podFreed(p *Pod) {
	if !p.inFree && !p.Machine.Crashed() {
		p.inFree = true
		heap.Push(&e.freePods, p)
	}
}

// warmAdd indexes pod as holding slot's warm container. Worker-phase
// callers (container acquisition) touch only their own invocation's slot,
// but share the outer map — hence the lock.
func (e *Engine) warmAdd(slot SlotID, p *Pod) {
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	m := e.warm[slot]
	if m == nil {
		m = make(map[int]*Pod)
		e.warm[slot] = m
	}
	m[p.ID] = p
}

// warmRemove drops pod from slot's warm index (container evicted).
func (e *Engine) warmRemove(slot SlotID, p *Pod) {
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	if m := e.warm[slot]; m != nil {
		delete(m, p.ID)
		if len(m) == 0 {
			delete(e.warm, slot)
		}
	}
}

// podHeap is a min-heap of free pods by ID with lazy deletion.
type podHeap []*Pod

func (h podHeap) Len() int           { return len(h) }
func (h podHeap) Less(i, j int) bool { return h[i].ID < h[j].ID }
func (h podHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *podHeap) Push(x any)        { *h = append(*h, x.(*Pod)) }
func (h *podHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}

func (p *Pod) everUsed() bool { return p.used }
func (p *Pod) markUsed()      { p.used = true }

// executeItem runs one invocation synchronously against its own meter.
// It may run on a worker goroutine: everything it touches is owned by the
// item's machine group (pod, container, kernel, page cache, NIC) or is
// captured on the item for the commit phase. Counter deltas are read from
// the consumer machine only — every counter a synchronous invocation can
// move (transport retries, cache/readahead traffic, failovers) lives on
// the kernel or NIC of the pod's machine, which this group owns; that
// makes the deltas exact regardless of what other groups do concurrently.
func (e *Engine) executeItem(it *execItem) {
	it.meter = simtime.NewMeter()
	req := it.inv.req
	mid := it.pod.Machine.ID()
	retryBase := e.Cluster.MachineRetries(mid)
	cacheBase := it.pod.Kernel.CacheStats()
	failBase := it.pod.Kernel.Failovers()
	if req.err == nil {
		it.out, it.err = e.invoke(it, it.pod, it.meter, req.inputs[it.inv.node])
	}
	it.retries = e.Cluster.MachineRetries(mid) - retryBase
	it.cacheDelta = it.pod.Kernel.CacheStats().Sub(cacheBase)
	it.failovers = int(it.pod.Kernel.Failovers() - failBase)
	if topo := e.Cluster.Topo; topo != nil {
		// All link uses journaled since the previous item on this machine
		// belong to this invocation: its group owns the machine's
		// transport exclusively during the phase.
		it.linkUses = topo.DrainDeferred(mid)
	}
}

// commit applies one executed item's effects on the simulator thread, in
// canonical batch order: deferred engine-map mutations, Report values,
// request counters, journaled kernel scheduling, and finally the
// completion event — the same order the sequential engine produced them
// in, so event sequence numbers (and with them every downstream artifact)
// are identical at any worker count.
func (e *Engine) commit(it *execItem) {
	inv, pod, req := it.inv, it.pod, it.inv.req
	meter, out, err := it.meter, it.out, it.err
	retries, cacheDelta, failovers := it.retries, it.cacheDelta, it.failovers
	for _, fn := range it.commits {
		fn()
	}
	for _, v := range it.reports {
		req.result = v
	}
	req.retries += retries
	req.failovers += failovers
	req.fallbacks += it.fallbacks
	for _, s := range it.sched {
		e.Cluster.Sim.After(s.d, s.fn)
	}
	// Replay journaled shared-link occupancy in canonical commit order:
	// queueing waits land on the meter before the completion delay is
	// computed, so link contention extends the invocation's latency.
	if topo := e.Cluster.Topo; topo != nil && len(it.linkUses) > 0 {
		topo.Replay(meter, it.linkUses, e.Cluster.Sim.Now())
	}
	started := e.Cluster.Sim.Now()
	d := meter.Total()
	e.Cluster.Sim.After(d, func() {
		pod.busy = false
		e.podFreed(pod)
		// Redeliver control-plane operations deferred by an injected
		// fault or a lifted partition before this completion issues new
		// ones (strict FIFO keeps the journal in canonical order).
		e.drainCtrlBacklog()
		// Fold the attempt's meter so re-executed nodes accumulate across
		// attempts instead of overwriting.
		if agg, ok := req.meters[inv.node]; ok {
			agg.AddAll(meter)
		} else {
			req.meters[inv.node] = meter
		}
		if e.opts.Trace {
			errText := ""
			if err != nil {
				errText = err.Error()
			}
			req.spans = append(req.spans, Span{
				Node: inv.node.String(), Pod: pod.ID, Machine: int(pod.Machine.ID()),
				Start: started, End: e.Cluster.Sim.Now(),
				Breakdown: meter.Snapshot(),
				Retries:   retries, Redo: inv.redo, Err: errText,
				CacheHits: cacheDelta.Hits, CacheMisses: cacheDelta.Misses,
				ReadaheadPages: cacheDelta.ReadaheadPages,
				Failovers:      failovers,
			})
		}
		// Deadline check at the event boundary (virtual time is frozen
		// inside the synchronous invocation): a request past its deadline
		// sheds instead of climbing the recovery ladder — its remaining
		// invocations drain as no-ops and reclamation proceeds normally.
		if req.deadline != 0 && req.err == nil && e.Cluster.Sim.Now() > req.deadline {
			req.deadlineHit = true
			req.err = &admit.ShedError{Tenant: req.tenant, Reason: admit.ReasonDeadline}
		}
		if err != nil && req.err == nil {
			if e.opts.Recovery != nil && e.repair(req, inv, err) {
				// Repaired: this invocation is parked and re-runs when the
				// producer's redo delivers. No progress is recorded now.
				e.dispatch()
				return
			}
			if req.err == nil {
				// repair may itself have shed the request on its deadline.
				req.err = fmt.Errorf("%v: %w", inv.node, err)
			}
		}
		if inv.redo {
			// A redo feeds only its parked waiters; it already counted
			// toward progress on its original completion.
			e.deliverRedo(req, inv.node, out)
		} else {
			e.deliver(req, inv.node, out)
			req.remaining--
			if req.remaining == 0 {
				req.done(req)
			}
		}
		e.dispatch()
	})
}

// invoke performs the whole function lifecycle on the pod: container
// acquisition, input consumption, handler execution, output production,
// and remote-heap release. It may run on a worker goroutine; mutations of
// shared engine state are deferred onto the item (commits/reports) and
// applied on the simulator thread at commit time.
func (e *Engine) invoke(it *execItem, pod *Pod, meter *simtime.Meter, payloads []*statePayload) (*statePayload, error) {
	inv := it.inv
	req := inv.req
	spec := e.wf.Function(inv.node.fn)
	meter.Charge(simtime.CatPlatform, e.Cluster.CM.InvokeOverhead)

	c, err := e.container(pod, spec, inv.node, meter)
	if err != nil {
		return nil, err
	}
	c.AS.SetMeter(meter)
	defer c.AS.SetMeter(nil)

	// Present inputs in declared (edge, instance) order, not completion
	// order — handlers must see the same input sequence under every
	// transfer mode and timing.
	producerRank := map[string]int{}
	for i, p := range e.wf.Producers(inv.node.fn) {
		if _, ok := producerRank[p]; !ok {
			producerRank[p] = i
		}
	}
	sort.SliceStable(payloads, func(i, j int) bool {
		ri, rj := producerRank[payloads[i].from.fn], producerRank[payloads[j].from.fn]
		if ri != rj {
			return ri < rj
		}
		return payloads[i].from.inst < payloads[j].from.inst
	})

	inputs := make([]objrt.Obj, 0, len(payloads))
	for _, p := range payloads {
		obj, err := e.consume(c, pod, meter, p)
		if err != nil {
			// Drop any remote maps adopted for earlier inputs so a re-run
			// of this invocation starts from a clean address space, and
			// tag the failure with the payload so repair can identify the
			// producer to re-execute.
			_ = c.RT.ReleaseAllRemote()
			return nil, &transferError{payload: p, err: err}
		}
		inputs = append(inputs, obj)
	}

	ctx := &Ctx{
		RT: c.RT, Meter: meter, CM: e.Cluster.CM,
		Inputs: inputs, Instance: inv.node.inst, Instances: spec.Instances,
		RequestID: req.id,
		// Report values are captured on the item and applied at commit in
		// canonical order: req.result is shared across the whole request,
		// which may have invocations executing on other machines' workers.
		Report: func(v any) { it.reports = append(it.reports, v) },
	}
	out, herr := spec.Handler(ctx)
	if herr != nil {
		_ = c.RT.ReleaseAllRemote()
		return nil, herr
	}

	var payload *statePayload
	consumers := e.consumerCount(inv.node.fn)
	if consumers > 0 && !out.Nil() {
		if fw := e.forwardable(payloads, out); fw != nil {
			// Multi-hop remote map (§4.4's future-work design): B
			// passes A's state to C by forwarding A's registration
			// instead of copying — the registration stays alive until
			// C finishes.
			payload = e.forward(it, fw, out, inv.node, consumers)
		} else {
			out, err = e.localizeOutput(c, meter, out)
			if err != nil {
				_ = c.RT.ReleaseAllRemote()
				return nil, err
			}
			payload, err = e.produce(it, c, pod, meter, req, inv.node, out, consumers)
			if err != nil {
				_ = c.RT.ReleaseAllRemote()
				return nil, err
			}
		}
	}
	// Invocation epilogue: drop remote proxies (hybrid GC unmaps the
	// remote heaps) and collect local invocation garbage. The output's
	// bytes survive in kernel shadow pages even though the allocator
	// reclaims its space: the registered range is CoW-protected.
	if err := c.RT.ReleaseAllRemote(); err != nil {
		return nil, err
	}
	if _, err := c.RT.GC(); err != nil {
		return nil, err
	}
	return payload, nil
}

func (e *Engine) consumerCount(fn string) int {
	n := 0
	for _, cfn := range e.wf.Consumers(fn) {
		n += e.wf.Function(cfn).Instances
	}
	return n
}

// forwardable returns the consumed rmmap payload whose mapped range
// contains the whole output graph, if forwarding is enabled — meaning the
// handler passed (a sub-object of) its input through unchanged.
func (e *Engine) forwardable(payloads []*statePayload, out objrt.Obj) *statePayload {
	if !e.opts.ForwardRemote {
		return nil
	}
	for _, p := range payloads {
		if !p.mode.IsRMMAP() {
			continue
		}
		if out.Addr < p.meta.Start || out.Addr >= p.meta.End {
			continue
		}
		contained := true
		if _, err := objrt.Walk(out, 0, func(addr, size uint64) {
			if addr < p.meta.Start || addr+size > p.meta.End {
				contained = false
			}
		}); err != nil || !contained {
			return nil
		}
		return p
	}
	return nil
}

// forward republishes an upstream registration to this node's consumers,
// extending its ACL to the new consumer function types. Both mutations are
// deferred to the commit phase: downstream consumers only rmap after this
// node's completion event, which fires after commit, so they always see
// the extended ACL. The kernel extension runs unconditionally — the data
// plane stays authoritative for access control even while the coordinator
// is down; the directory ref-count and journaled ACL extension backlog
// until recovery in that case.
func (e *Engine) forward(it *execItem, p *statePayload, out objrt.Obj, node nodeKey, consumers int) *statePayload {
	meta := p.meta
	more := make([]kernel.FuncID, 0, 1)
	for _, cfn := range e.wf.Consumers(node.fn) {
		more = append(more, typeID(cfn))
	}
	it.commits = append(it.commits, func() {
		_ = e.Cluster.Kernels[meta.Machine].ExtendACL(meta.ID, meta.Key, more)
		ref := ctrlRef(meta.ID, meta.Key)
		e.ctrlDo(meta.Machine, "ctrl.forward", func() {
			if e.coord.AddRef(ref) != nil {
				return // the directory lost the entry; the kernel still holds it
			}
			moreIDs := make([]uint64, len(more))
			for i, m := range more {
				moreIDs[i] = uint64(m)
			}
			_ = e.coord.ExtendACL(ref, moreIDs)
		})
	})
	fw := &statePayload{
		from: node, mode: p.mode, meta: p.meta,
		rootAddr: out.Addr, consumers: consumers,
	}
	if out.Addr == p.rootAddr {
		fw.prefetch = p.prefetch
	}
	return fw
}

// localizeOutput enforces the copy rule of §4.3/§4.4: if the handler's
// output graph references remote (mapped) objects, deep-copy it onto the
// local heap before registering/serializing.
func (e *Engine) localizeOutput(c *Container, meter *simtime.Meter, out objrt.Obj) (objrt.Obj, error) {
	local := true
	_, err := objrt.Walk(out, 0, func(addr, size uint64) {
		if !c.RT.Heap().Contains(addr) {
			local = false
		}
	})
	if err != nil {
		return objrt.Obj{}, err
	}
	if local {
		return out, nil
	}
	return c.RT.CopyToLocal(out, meter)
}

// container returns the pod's warm container for the slot, creating (and
// optionally cold-start-charging) one as needed. A container whose heap is
// nearly full is recycled — its registered state lives on in shadow pages.
func (e *Engine) container(pod *Pod, spec *FunctionSpec, node nodeKey, meter *simtime.Meter) (*Container, error) {
	slot := SlotID{node.fn, node.inst}
	if c, ok := pod.cache[slot]; ok {
		heapSize := c.Layout.HeapEnd - c.Layout.HeapStart
		if c.RT.Heap().Used()-c.Layout.HeapStart < heapSize*3/5 {
			return c, nil
		}
		c.Close()
		delete(pod.cache, slot)
		e.warmRemove(slot, pod)
	}
	layout, ok := e.Plan.Slot(slot)
	if !ok {
		return nil, fmt.Errorf("platform: no plan slot for %v", slot)
	}
	var cds *objrt.CDS
	if spec.Lang == objrt.LangJava {
		cds = e.cds
	}
	c, err := newContainer(pod, spec, slot, layout, cds, e.Cluster.CM)
	if err != nil {
		return nil, err
	}
	// Every container has its libraries resident (shared frames, like
	// the page cache); only the whole-space register scope also has to
	// CoW-mark and ship their page-table entries.
	e.installSharedText(c)
	if e.opts.ColdStart {
		meter.Charge(simtime.CatPlatform, e.Cluster.CM.ColdStart)
		pod.coldStarts++
	}
	pod.cache[slot] = c
	e.warmAdd(slot, pod)
	return c, nil
}

type textKey struct {
	machine memsim.MachineID
	fn      string
}

// installSharedText maps the function's resident library pages into the
// container, sharing one frame set per (machine, function type) — the
// whole-address-space register scope (§6) then CoW-marks and ships these
// pages' table entries too.
func (e *Engine) installSharedText(c *Container) {
	key := textKey{c.Pod.Machine.ID(), c.Slot.Function}
	e.textMu.Lock()
	pfns := e.textFrames[key]
	if pfns == nil {
		n := DefaultTextPages
		pfns = make([]memsim.PFN, 0, n)
		for i := 0; i < n; i++ {
			pfns = append(pfns, c.Pod.Machine.AllocFrame())
		}
		e.textFrames[key] = pfns
	}
	e.textMu.Unlock()
	for i, pfn := range pfns {
		addr := c.Layout.TextStart + uint64(i)*memsim.PageSize
		if addr >= c.Layout.TextEnd {
			break
		}
		c.Pod.Machine.Ref(pfn) // the container's reference
		c.AS.InstallPTE(memsim.PageOf(addr), memsim.PTE{PFN: pfn, Flags: memsim.FlagPresent})
	}
}

// consume materializes one input state inside the consumer container.
func (e *Engine) consume(c *Container, pod *Pod, meter *simtime.Meter, p *statePayload) (objrt.Obj, error) {
	switch p.mode {
	case ModeMessaging:
		env, data, err := transport.DecodeEvent(p.pickled)
		if err != nil {
			return objrt.Obj{}, err
		}
		if env.Compressed {
			if data, err = transport.Decompress(meter, data); err != nil {
				return objrt.Obj{}, err
			}
		}
		return e.unpickleWithBuffer(c, pod, meter, data)
	case ModeStoragePocket, ModeStorageDrTM:
		data, err := e.store.Get(meter, p.storeKey)
		if err != nil {
			return objrt.Obj{}, err
		}
		return e.unpickleWithBuffer(c, pod, meter, data)
	case ModeRMMAP, ModeRMMAPPrefetch:
		// RmapMeta (not Rmap) so the mapping knows the registration's
		// backup machines: if the producer is already dead the consumer
		// fails over at rmap time instead of failing outright.
		mp, err := pod.Kernel.RmapMeta(c.AS, p.meta, typeID(c.Slot.Function), kernel.PagingRDMA)
		if err != nil {
			return objrt.Obj{}, err
		}
		if len(p.prefetch) > 0 {
			if err := mp.Prefetch(p.prefetch); err != nil {
				// Tear the VMA down before failing: a later re-invocation
				// of this slot must not hit a stale overlapping mapping.
				_ = mp.Unmap()
				return objrt.Obj{}, err
			}
		}
		root, err := c.RT.Load(p.rootAddr)
		if err != nil {
			_ = mp.Unmap()
			return objrt.Obj{}, err
		}
		c.RT.AdoptRemote(root, mp)
		return root, nil
	default:
		return objrt.Obj{}, fmt.Errorf("platform: unknown payload mode %v", p.mode)
	}
}

// unpickleWithBuffer deserializes a received body, holding its receive
// buffer in real frames for the duration (the consumer-side half of
// §5.6's message-buffer memory).
func (e *Engine) unpickleWithBuffer(c *Container, pod *Pod, meter *simtime.Meter, data []byte) (objrt.Obj, error) {
	buf := &statePayload{}
	buf.allocBuffer(pod.Machine, len(data))
	defer buf.freeBuffer()
	return objrt.Unpickle(c.RT, data, meter)
}

// produce publishes the handler output under the engine's transfer mode,
// charging the producer meter, and returns the payload for consumers.
func (e *Engine) produce(it *execItem, c *Container, pod *Pod, meter *simtime.Meter, req *request, node nodeKey, out objrt.Obj, consumers int) (*statePayload, error) {
	spec := e.wf.Function(node.fn)
	mode := e.mode

	// Fallback decisions (§3.2, §6): untrusted consumers and trivially
	// small states use messaging even under RMMAP.
	if mode.IsRMMAP() {
		if e.anyConsumerUntrusted(node.fn) {
			mode = ModeMessaging
		} else if small, err := e.stateIsSmall(out); err != nil {
			return nil, err
		} else if small {
			mode = ModeMessaging
		}
	}
	// Cross-language edges cannot share object layouts (§6).
	if mode.IsRMMAP() {
		for _, cfn := range e.wf.Consumers(node.fn) {
			if e.wf.Function(cfn).Lang != spec.Lang {
				mode = ModeMessaging
				break
			}
		}
	}
	// Recovery-ladder degradation: an edge whose rmap kept failing has
	// been demoted to messaging for the rest of this request.
	if mode.IsRMMAP() && len(req.degraded) > 0 {
		for _, cfn := range e.wf.Consumers(node.fn) {
			if req.degraded[edgeKey{node.fn, cfn}] {
				mode = ModeMessaging
				it.fallbacks++ // folded into req.fallbacks at commit
				break
			}
		}
	}

	fellBack := mode == ModeMessaging && e.mode != ModeMessaging

	p := &statePayload{from: node, mode: mode, consumers: consumers}
	switch mode {
	case ModeMessaging:
		data, _, err := objrt.Pickle(out, meter)
		if err != nil {
			return nil, err
		}
		if e.opts.Compress {
			if data, err = transport.Compress(meter, data); err != nil {
				return nil, err
			}
		}
		// States travel as CloudEvents 1.0 structured events — the real
		// Knative wire format, with base64 inflation on binary data.
		event, err := transport.EncodeEvent(
			fmt.Sprintf("r%d-%s", req.id, node), node.fn, "dev.rmmap.state", data, e.opts.Compress)
		if err != nil {
			return nil, err
		}
		if fellBack {
			// Small-state fallback (§6): the few bytes piggyback on the
			// coordinator completion event whose hop path InvokeOverhead
			// already covers; only the marginal bytes cost anything.
			if !e.opts.ZeroNetwork {
				meter.Charge(simtime.CatNetwork,
					simtime.Bytes(len(event), e.Cluster.CM.MessagePerByte))
			}
		} else {
			e.msg.Charge(meter, len(event))
		}
		p.pickled = event
		// The serialized body occupies real memory until every consumer
		// has received it (§5.6's message buffers).
		p.allocBuffer(pod.Machine, len(event))
	case ModeStoragePocket, ModeStorageDrTM:
		data, _, err := objrt.Pickle(out, meter)
		if err != nil {
			return nil, err
		}
		p.storeKey = fmt.Sprintf("r%d/%s", req.id, node)
		if err := e.store.Put(meter, p.storeKey, data); err != nil {
			return nil, err
		}
		// The stored copy occupies memory for the state's lifetime; we
		// account it on the producer's machine (the cluster hosts the
		// ephemeral store).
		p.allocBuffer(pod.Machine, len(data))
		// The key piggybacks on the coordinator completion event whose
		// cost InvokeOverhead already covers.
	case ModeRMMAP, ModeRMMAPPrefetch:
		// The whole address space (§6): text through used heap, so objects
		// referencing library data stay valid remotely. The stack is
		// excluded: it is dead at return time and would only add pages.
		start, end := c.Layout.TextStart, c.HeapUsedEnd()
		// The registration sequence number was pre-assigned on the
		// simulator thread at batch formation, so ID/key values do not
		// depend on which invocations end up registering or in what
		// worker-phase order.
		id := kernel.FuncID(it.regSeq)
		key := kernel.Key(scrambleKey(it.regSeq))
		meta, err := pod.Kernel.RegisterMem(c.AS, id, key, start, end)
		if err != nil {
			return nil, err
		}
		// Connection-based permission control (§4.1): only this edge's
		// consumer function types may map the registration.
		var allowed []kernel.FuncID
		for _, cfn := range e.wf.Consumers(node.fn) {
			allowed = append(allowed, typeID(cfn))
		}
		if err := pod.Kernel.SetACL(id, key, allowed); err != nil {
			return nil, err
		}
		p.meta = meta
		p.rootAddr = out.Addr
		if mode == ModeRMMAPPrefetch {
			plan, err := objrt.PlanPrefetch(out, 0, meter)
			if err != nil {
				return nil, err
			}
			p.prefetch = plan.Pages
		}
		// Meta (addresses, key, prefetch list) piggybacks on the
		// coordinator completion event, like the storage key above. The
		// coordinator's directory insert (journaled) is deferred to commit:
		// the coordinator is sim-thread-only, and nothing reads this entry
		// before the producer's completion event (which fires after
		// commit) delivers the payload downstream. While the coordinator
		// is down the insert backlogs — the kernel-side registration above
		// already happened, so the data plane proceeds regardless.
		allowedIDs := make([]uint64, len(allowed))
		for i, a := range allowed {
			allowedIDs[i] = uint64(a)
		}
		mach := int(meta.Machine)
		ref := ctrlRef(id, key)
		it.commits = append(it.commits, func() {
			e.ctrlDo(meta.Machine, "ctrl.register", func() {
				_ = e.coord.Register(ref, mach, allowedIDs)
			})
		})
	}
	return p, nil
}

func (e *Engine) anyConsumerUntrusted(fn string) bool {
	for _, cfn := range e.wf.Consumers(fn) {
		if e.wf.Function(cfn).Untrusted {
			return true
		}
	}
	return false
}

// stateIsSmall implements the small-object fallback: scalars, tiny blobs
// and short flat containers serialize cheaper than register+rmap. The
// runtime's type semantics make this check O(1) — no traversal.
func (e *Engine) stateIsSmall(out objrt.Obj) (bool, error) {
	tag, err := out.Tag()
	if err != nil {
		return false, err
	}
	thr := uint64(DefaultSmallState)
	switch tag {
	case objrt.TInt, objrt.TFloat:
		return true, nil
	case objrt.TStr, objrt.TBytes:
		size, err := out.Size()
		if err != nil {
			return false, err
		}
		return size <= thr, nil
	case objrt.TList, objrt.TTuple, objrt.TDict:
		// Bounded sample walk: small only if the whole graph fits the
		// threshold (a 2-entry dict can hold megabytes).
		st, err := objrt.Walk(out, 32, nil)
		if err != nil {
			return false, err
		}
		return st.Complete && st.Bytes <= thr, nil
	default:
		return false, nil
	}
}

// deliver routes a completed node's payload to all its consumers and
// reclaims registered memory whose consumers have all finished.
func (e *Engine) deliver(req *request, node nodeKey, payload *statePayload) {
	// Account consumption of this node's own inputs for reclamation. The
	// slice itself is kept: if a downstream failure later forces this node
	// to re-execute, the redo re-consumes from it (payloads whose
	// registrations were meanwhile reclaimed then fail auth, which cascades
	// the re-execution further upstream — still bounded by the budget).
	for _, in := range req.inputs[node] {
		e.releaseConsumer(in)
	}

	for _, cfn := range e.wf.Consumers(node.fn) {
		for i := 0; i < e.wf.Function(cfn).Instances; i++ {
			ck := nodeKey{cfn, i}
			if payload != nil {
				req.inputs[ck] = append(req.inputs[ck], payload)
			}
			req.pending[ck]--
			if req.pending[ck] == 0 {
				e.queue = append(e.queue, &invocation{req: req, node: ck})
			}
		}
	}
}

// releaseConsumer decrements a state's consumer count; when the last
// consumer finishes, the coordinator reclaims it — deregister_mem for
// rmmap states (§4.2), buffer/storage release for serialized ones. The
// reclamation order is a control-plane command: the coordinator journals
// the release, and the deregister carries the issuing incarnation's epoch
// so kernels fence a zombie coordinator's stale orders. While the
// coordinator is down the whole release backlogs — memory stays
// registered until recovery drains it (or the pods' lease scanners reap
// it first).
func (e *Engine) releaseConsumer(p *statePayload) {
	p.consumers--
	if p.consumers > 0 {
		return
	}
	p.freeBuffer()
	if p.storeKey != "" {
		e.store.Delete(p.storeKey)
	}
	if !p.mode.IsRMMAP() {
		return
	}
	meta := p.meta
	ref := ctrlRef(meta.ID, meta.Key)
	e.ctrlDo(meta.Machine, "ctrl.release", func() {
		machine, last, err := e.coord.Release(ref)
		if err != nil || !last {
			return // unknown (reconciled away) or a forwarded ref remains
		}
		k := e.Cluster.Kernels[machine]
		if e.disableEpochFence {
			_ = k.DeregisterMem(meta.ID, meta.Key)
		} else if err := k.DeregisterMemFenced(e.coord.Epoch(), meta.ID, meta.Key); err != nil {
			return // fenced: a newer incarnation owns this registration
		}
		_ = e.coord.NoteReclaim(ref, machine)
	})
}

// LiveRegistrations reports registrations the coordinator still tracks.
func (e *Engine) LiveRegistrations() int { return e.coord.Live() }

// ColdStarts reports container creations charged as cold starts
// (Options.ColdStart) across all pods.
func (e *Engine) ColdStarts() int {
	n := 0
	for _, p := range e.pods {
		n += p.coldStarts
	}
	return n
}

// typeID derives a stable consumer identity from a function type name
// (FNV-1a), used by the registration ACLs.
func typeID(name string) kernel.FuncID {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1 // 0 is the anonymous consumer
	}
	return kernel.FuncID(h)
}

// scrambleKey derives a registration key from the sequence number
// (SplitMix64 finalizer — deterministic, well distributed).
func scrambleKey(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SortedFunctionNames returns the workflow's function names sorted (report
// helper).
func (e *Engine) SortedFunctionNames() []string {
	names := make([]string, 0, len(e.wf.Functions))
	for _, f := range e.wf.Functions {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return names
}
