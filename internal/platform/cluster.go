package platform

import (
	"fmt"

	"rmmap/internal/faults"
	"rmmap/internal/kernel"
	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/rdma"
	"rmmap/internal/sim"
	"rmmap/internal/simtime"
)

// Cluster is the physical substrate: machines with RMMAP kernels on a
// shared RDMA fabric, plus the discrete-event simulator that provides the
// cluster's virtual clock.
type Cluster struct {
	CM       *simtime.CostModel
	Fabric   *rdma.SimFabric
	Machines []*memsim.Machine
	Kernels  []*kernel.Kernel
	Sim      *sim.Simulator

	// Topo is non-nil on multi-rack clusters: the link-cost model every
	// kernel's transport charges through (DESIGN.md §14). Flat clusters
	// leave it nil and take exactly the pre-topology code path.
	Topo *rdma.Topology

	// Injector is non-nil on chaos clusters (NewChaosCluster): the seeded
	// fault source every kernel's transport consults.
	Injector *faults.Injector
	retriers []*faults.RetryTransport

	// cleanup stops real-socket servers on TCP-backed clusters.
	cleanup func()

	// retainCrashedPages keeps cluster caches' entries for a crashed
	// machine's pages: with replication on, those cached bytes are still
	// the authoritative content of the dead producer's registrations
	// (generation fencing keeps them honest), so failed-over consumers
	// keep hitting them. Without replication a crash invalidates.
	retainCrashedPages bool
}

// ClusterSpec is the declarative input to BuildCluster — the assembly
// contract the platformbuilder's fluent API compiles down to. The zero
// value plus a machine count reproduces the classic flat cluster.
type ClusterSpec struct {
	// Machines is the machine count (must be ≥ 1).
	Machines int
	// CM is the cost model; nil means simtime.DefaultCostModel().
	CM *simtime.CostModel
	// Topo, when non-nil, attaches the multi-rack link-cost model: every
	// kernel transport is wrapped in rdma.WithTopology, and racks marked
	// FabricTCP get a real loopback-TCP byte transport muxed in for the
	// links that touch them. Machine count must match the topology.
	Topo *rdma.Topology
	// Chaos, when non-nil, wires the seeded fault injector and retrying
	// transport exactly like NewChaosCluster, outside the topology wrap:
	// retry(faults(topo(nic))), so injected faults short-circuit before
	// any link cost is charged and retries re-charge hops honestly.
	Chaos *faults.Plan
	// Retry is the retry policy for Chaos clusters (normalized defaults
	// apply when zero).
	Retry faults.RetryPolicy
	// AllTCP puts every machine on the real loopback-TCP fabric (the
	// NewClusterTCP behaviour); mutually exclusive with per-rack fabric
	// selection via Topo.
	AllTCP bool
}

// BuildCluster assembles a cluster from a spec. It is the single assembly
// path: the engine, the chaos/bench/load CLIs, and the platformbuilder all
// flow through it, so a flat one-rack build is byte-identical to the
// pre-topology cluster by construction.
func BuildCluster(spec ClusterSpec) (*Cluster, error) {
	if spec.Machines < 1 {
		return nil, fmt.Errorf("platform: cluster needs at least 1 machine, got %d", spec.Machines)
	}
	cm := spec.CM
	if cm == nil {
		cm = simtime.DefaultCostModel()
	}
	if spec.Topo != nil && spec.Topo.Machines() != spec.Machines {
		return nil, fmt.Errorf("platform: topology covers %d machines, cluster has %d",
			spec.Topo.Machines(), spec.Machines)
	}
	c := &Cluster{CM: cm, Sim: sim.New(), Topo: spec.Topo}
	if spec.Topo != nil {
		spec.Topo.Clock = c.Sim.Now
	}
	if spec.Chaos != nil {
		c.Injector = faults.NewInjector(*spec.Chaos, c.Sim.Now)
	}

	wantSim := !spec.AllTCP
	wantTCP := spec.AllTCP || (spec.Topo != nil && spec.Topo.HasTCP())
	if wantSim {
		c.Fabric = rdma.NewSimFabric(cm)
	}
	var tcpFabric *rdma.TCPFabric
	var servers []*rdma.TCPServer
	var tcpNICs []*rdma.TCPNIC
	if wantTCP {
		tcpFabric = rdma.NewTCPFabric(cm)
		c.cleanup = func() {
			for _, nic := range tcpNICs {
				nic.Close()
			}
			for _, s := range servers {
				s.Close()
			}
		}
	}

	for i := 0; i < spec.Machines; i++ {
		m := memsim.NewMachine(memsim.MachineID(i))
		var transport rdma.Transport
		if wantSim {
			c.Fabric.Attach(m)
			transport = rdma.NewNIC(m.ID(), c.Fabric)
		}
		if wantTCP {
			srv, err := tcpFabric.Serve(m, "127.0.0.1:0")
			if err != nil {
				c.Close()
				return nil, err
			}
			servers = append(servers, srv)
			nic := rdma.NewTCPNIC(m, tcpFabric)
			tcpNICs = append(tcpNICs, nic)
			if transport == nil {
				transport = nic
			} else {
				// Mixed fabrics: TCP for links the topology marks TCP,
				// the in-process fabric for everything else.
				id, topo := m.ID(), spec.Topo
				transport = rdma.NewMux(transport, nic, func(target memsim.MachineID) bool {
					return topo.UseTCP(id, target)
				})
			}
		}
		if spec.Topo != nil {
			transport = rdma.WithTopology(transport, spec.Topo)
		}
		if c.Injector != nil {
			rt := faults.WithRetry(faults.Wrap(transport, c.Injector), spec.Retry)
			c.retriers = append(c.retriers, rt)
			transport = rt
		}
		k := kernel.New(m, transport, cm)
		k.Clock = c.Sim.Now
		if wantSim {
			k.ServeRPC(c.Fabric)
		}
		if wantTCP {
			k.ServeTCP(servers[i])
		}
		c.Machines = append(c.Machines, m)
		c.Kernels = append(c.Kernels, k)
	}
	c.wirePageCaches()
	if spec.Chaos != nil {
		c.armCrashes(*spec.Chaos)
	}
	return c, nil
}

// armCrashes schedules the plan's machine crashes on the simulator.
func (c *Cluster) armCrashes(plan faults.Plan) {
	for _, cr := range plan.Crashes {
		if int(cr.Machine) < 0 || int(cr.Machine) >= len(c.Machines) {
			continue
		}
		mach := c.Machines[cr.Machine]
		c.Sim.At(cr.At, func() {
			mach.Crash()
			// The crashed machine's frames are gone; cached copies of them
			// cluster-wide are stale by definition — unless replication
			// retains them as authoritative (checked at fire time, since
			// the engine wires replication after the cluster is built).
			if !c.retainCrashedPages {
				c.invalidateMachine(mach.ID())
			}
		})
	}
}

// Close stops any real-socket servers backing the cluster. Safe on
// pure-simulation clusters (no-op) and safe to call more than once.
func (c *Cluster) Close() {
	if c.cleanup != nil {
		c.cleanup()
		c.cleanup = nil
	}
}

// NewCluster builds n machines, each with an RMMAP kernel serving RPC.
func NewCluster(n int, cm *simtime.CostModel) *Cluster {
	c, err := BuildCluster(ClusterSpec{Machines: n, CM: cm})
	if err != nil {
		panic(err)
	}
	return c
}

// wirePageCaches enables the per-machine remote page cache with platform
// defaults and connects deregister_mem on any machine to every machine's
// cache — the generation-bump invalidation broadcast (§4.2 reclamation).
func (c *Cluster) wirePageCaches() {
	for _, k := range c.Kernels {
		k.EnablePageCache(kernel.DefaultPageCacheBytes)
		k.SetReadahead(kernel.DefaultReadaheadMax)
		k.OnDeregister = c.invalidateBelow
	}
}

func (c *Cluster) invalidateBelow(mac memsim.MachineID, below uint64) {
	for _, k := range c.Kernels {
		if pc := k.PageCache(); pc != nil {
			pc.InvalidateBelow(mac, below)
		}
	}
}

// invalidateMachine drops every cached page sourced from mac (crash path).
func (c *Cluster) invalidateMachine(mac memsim.MachineID) {
	for _, k := range c.Kernels {
		if pc := k.PageCache(); pc != nil {
			pc.InvalidateMachine(mac)
		}
	}
}

// CacheStats aggregates page-cache and readahead counters cluster-wide.
func (c *Cluster) CacheStats() kernel.CacheStats {
	var s kernel.CacheStats
	for _, k := range c.Kernels {
		s = s.Add(k.CacheStats())
	}
	return s
}

// NewChaosCluster builds a cluster whose kernels see the fabric through a
// seeded fault injector and a retrying transport: each NIC is wrapped as
// retry(faults(NIC)), so transient injected faults are retried with capped
// exponential backoff (charged to CatRetry) before they ever reach the
// kernel, while persistent faults and machine crashes surface as errors for
// the engine's recovery ladder. The plan's machine crashes are armed on the
// simulator; everything downstream is deterministic in plan.Seed.
func NewChaosCluster(n int, cm *simtime.CostModel, plan faults.Plan, retry faults.RetryPolicy) *Cluster {
	c, err := BuildCluster(ClusterSpec{Machines: n, CM: cm, Chaos: &plan, Retry: retry})
	if err != nil {
		panic(err)
	}
	return c
}

// Retries reports the cumulative transport-level retry count across all
// machines (zero on non-chaos clusters).
func (c *Cluster) Retries() int {
	n := 0
	for _, r := range c.retriers {
		n += r.Retries()
	}
	return n
}

// MachineRetries reports one machine's cumulative transport-level retry
// count (zero on non-chaos clusters). The parallel engine reads per-machine
// deltas around each invocation: all retries a synchronous invocation
// causes are charged to its own machine's retrying transport, which the
// invocation's batch group owns exclusively during a worker phase.
func (c *Cluster) MachineRetries(id memsim.MachineID) int {
	if int(id) < len(c.retriers) {
		return c.retriers[id].Retries()
	}
	return 0
}

// Failovers reports cluster-wide consumer mappings re-pointed at replicas.
func (c *Cluster) Failovers() int {
	n := 0
	for _, k := range c.Kernels {
		n += int(k.Failovers())
	}
	return n
}

// ReplicatedBytes reports cluster-wide page bytes pushed to backups.
func (c *Cluster) ReplicatedBytes() int64 {
	var n int64
	for _, k := range c.Kernels {
		n += k.ReplicatedBytes()
	}
	return n
}

// LeaseExpiries reports cluster-wide leases that aged out without crash
// evidence (partition or overload suspicion).
func (c *Cluster) LeaseExpiries() int {
	n := 0
	for _, k := range c.Kernels {
		n += int(k.LeaseExpiries())
	}
	return n
}

// NewClusterTCP builds a cluster whose machines talk over real loopback
// TCP sockets instead of the in-process fabric: every remote page fault
// and rmap RPC of a workflow run crosses an actual network boundary.
// Virtual-time accounting is identical; only the byte transport is real.
// Close the returned closer to stop the servers.
func NewClusterTCP(n int, cm *simtime.CostModel) (*Cluster, func(), error) {
	c, err := BuildCluster(ClusterSpec{Machines: n, CM: cm, AllTCP: true})
	if err != nil {
		return nil, nil, err
	}
	return c, c.Close, nil
}

// LiveBytes sums live memory across machines (Fig 16a accounting).
func (c *Cluster) LiveBytes() int {
	n := 0
	for _, m := range c.Machines {
		n += m.LiveBytes()
	}
	return n
}

// PeakBytes sums peak memory across machines.
func (c *Cluster) PeakBytes() int {
	n := 0
	for _, m := range c.Machines {
		n += m.PeakBytes()
	}
	return n
}

// Pod is one schedulable execution slot pinned to a machine. It caches
// warm containers per slot ID: a reused container skips cold start and —
// because the plan is static — is guaranteed a collision-free address
// range (§4.2 "Static vs. Dynamic").
type Pod struct {
	ID      int
	Machine *memsim.Machine
	Kernel  *kernel.Kernel
	cache   map[SlotID]*Container
	busy    bool
	used    bool
	// coldStarts counts container creations charged as cold starts on this
	// pod (Options.ColdStart). Written during worker phases — safe because
	// a pod is owned by its machine's batch group — and summed on the
	// simulator thread by Engine.ColdStarts.
	coldStarts int
	// inFree mirrors physical membership in the engine's free-pod heap
	// (lazy deletion: stale entries are discarded on pop).
	inFree bool
}

// Container is a warm function container: an address space laid out per
// the plan plus a language runtime on its heap segment.
type Container struct {
	Slot   SlotID
	Layout Layout
	AS     *memsim.AddressSpace
	RT     *objrt.Runtime
	Pod    *Pod
	spec   *FunctionSpec
}

// newContainer builds a container for slot on pod, realizing the plan:
// text/data placed by the "link script", heap/stack pinned via
// set_segment.
func newContainer(pod *Pod, spec *FunctionSpec, slot SlotID, layout Layout, cds *objrt.CDS, cm *simtime.CostModel) (*Container, error) {
	as := memsim.NewAddressSpace(pod.Machine, cm)
	if err := as.MapAnon(layout.TextStart, layout.TextEnd, memsim.SegText, false); err != nil {
		return nil, err
	}
	if err := as.MapAnon(layout.DataStart, layout.DataEnd, memsim.SegData, true); err != nil {
		return nil, err
	}
	if err := pod.Kernel.SetSegment(as, memsim.SegHeap, layout.HeapStart, layout.HeapEnd); err != nil {
		return nil, err
	}
	if err := pod.Kernel.SetSegment(as, memsim.SegStack, layout.StackStart, layout.StackEnd); err != nil {
		return nil, err
	}
	rt, err := objrt.NewRuntime(as, objrt.Config{
		HeapStart: layout.HeapStart, HeapEnd: layout.HeapEnd,
		Lang: spec.Lang, CDS: cds,
	})
	if err != nil {
		return nil, err
	}
	return &Container{Slot: slot, Layout: layout, AS: as, RT: rt, Pod: pod, spec: spec}, nil
}

// HeapUsedEnd returns the page-aligned end of the heap's used region —
// what the producer registers in heap-scope mode.
func (c *Container) HeapUsedEnd() uint64 {
	used := c.RT.Heap().Used()
	aligned := (used + memsim.PageSize - 1) &^ uint64(memsim.PageSize-1)
	if aligned == c.Layout.HeapStart {
		aligned += memsim.PageSize
	}
	if aligned > c.Layout.HeapEnd {
		aligned = c.Layout.HeapEnd
	}
	return aligned
}

// Close releases the container's address space (its registered shadow
// pages survive in the kernel).
func (c *Container) Close() { c.AS.Release() }

func (p *Pod) String() string { return fmt.Sprintf("pod%d@m%d", p.ID, p.Machine.ID()) }
