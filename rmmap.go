// Package rmmap is the public API of the RMMAP reproduction — an OS
// primitive for remote memory map that eliminates serialization and
// deserialization when transferring state between serverless functions
// (EuroSys 2024).
//
// The package re-exports the stable surface of the internal layers:
//
//   - the memory substrate (machines, address spaces) and RDMA fabric,
//   - the RMMAP kernel primitive (register_mem / rmap / deregister_mem),
//   - the managed object runtime (heaps, pickle codec, prefetch, GC),
//   - the serverless platform (workflows, plans, engines, transfer modes).
//
// Quick start — two machines, one state, zero serialization:
//
//	cluster := rmmap.NewCluster(2, rmmap.DefaultCostModel())
//	engine, _ := rmmap.NewEngineOn(cluster, workflow, rmmap.ModeRMMAPPrefetch, rmmap.Options{}, 4)
//	result, _ := engine.Run()
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package rmmap

import (
	"rmmap/internal/kernel"
	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/platform"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
)

// --- virtual time and cost model ---

type (
	// Time is a point in virtual time (nanoseconds).
	Time = simtime.Time
	// Duration is a span of virtual time (nanoseconds).
	Duration = simtime.Duration
	// Meter accumulates per-category virtual-time charges.
	Meter = simtime.Meter
	// CostModel holds the calibrated unit costs (DESIGN.md §2).
	CostModel = simtime.CostModel
	// Category labels a meter charge (compute, serialize, fault, …).
	Category = simtime.Category
)

// Common durations.
const (
	Nanosecond  = simtime.Nanosecond
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)

// NewMeter returns an empty meter.
func NewMeter() *Meter { return simtime.NewMeter() }

// DefaultCostModel returns the paper-calibrated cost model.
func DefaultCostModel() *CostModel { return simtime.DefaultCostModel() }

// --- memory substrate ---

type (
	// Machine is a simulated host with a pool of physical frames.
	Machine = memsim.Machine
	// MachineID identifies a machine (the mac_addr of rmap).
	MachineID = memsim.MachineID
	// AddressSpace is one container's virtual address space.
	AddressSpace = memsim.AddressSpace
	// VPN is a virtual page number.
	VPN = memsim.VPN
	// PFN is a physical frame number.
	PFN = memsim.PFN
)

// PageSize is the simulated page size (4 KiB).
const PageSize = memsim.PageSize

// NewMachine returns an empty machine.
func NewMachine(id MachineID) *Machine { return memsim.NewMachine(id) }

// NewAddressSpace returns an empty address space on m.
func NewAddressSpace(m *Machine, cm *CostModel) *AddressSpace {
	return memsim.NewAddressSpace(m, cm)
}

// --- RDMA fabric ---

type (
	// Fabric is the simulated RDMA interconnect.
	Fabric = rdma.SimFabric
	// NIC is one machine's fabric client.
	NIC = rdma.NIC
	// Transport is the per-machine view the kernel uses.
	Transport = rdma.Transport
)

// NewFabric returns an empty fabric charging from cm.
func NewFabric(cm *CostModel) *Fabric { return rdma.NewSimFabric(cm) }

// NewNIC returns a NIC for machine owner on fabric f.
func NewNIC(owner MachineID, f *Fabric) *NIC { return rdma.NewNIC(owner, f) }

// --- the RMMAP kernel primitive ---

type (
	// Kernel is one machine's RMMAP kernel module (Table 1).
	Kernel = kernel.Kernel
	// Mapping is a live rmap of a producer's memory into a consumer.
	Mapping = kernel.Mapping
	// VMMeta identifies a registration (what the producer ships to
	// consumers via the coordinator).
	VMMeta = kernel.VMMeta
	// FuncID identifies the registering function.
	FuncID = kernel.FuncID
	// Key is the registration authentication secret.
	Key = kernel.Key
	// PageCache is the machine-level remote page cache.
	PageCache = kernel.PageCache
	// CacheStats snapshots page-cache and readahead activity.
	CacheStats = kernel.CacheStats
)

// NewKernel returns a kernel for machine m using transport t.
func NewKernel(m *Machine, t Transport, cm *CostModel) *Kernel {
	return kernel.New(m, t, cm)
}

// --- the managed object runtime ---

type (
	// Runtime is a container's language runtime (heap + GC + codec).
	Runtime = objrt.Runtime
	// RuntimeConfig configures a runtime.
	RuntimeConfig = objrt.Config
	// Obj is a typed view of an object at a virtual address.
	Obj = objrt.Obj
	// Lang selects Python or Java runtime semantics.
	Lang = objrt.Lang
	// TreeNode is a decision-tree node (the ML model element type).
	TreeNode = objrt.TreeNode
	// PrefetchPlan is a traversal-derived page set (§4.4).
	PrefetchPlan = objrt.PrefetchPlan
	// RemoteRef is the hybrid GC's proxy for a remotely mapped root.
	RemoteRef = objrt.RemoteRef
)

// Runtime language modes.
const (
	LangPython = objrt.LangPython
	LangJava   = objrt.LangJava
)

// NewRuntime creates a runtime on as.
func NewRuntime(as *AddressSpace, cfg RuntimeConfig) (*Runtime, error) {
	return objrt.NewRuntime(as, cfg)
}

// Pickle serializes an object graph (the cost the baselines pay).
func Pickle(root Obj, meter *Meter) ([]byte, objrt.PickleStats, error) {
	return objrt.Pickle(root, meter)
}

// Unpickle reconstructs a pickled graph onto rt's heap.
func Unpickle(rt *Runtime, data []byte, meter *Meter) (Obj, error) {
	return objrt.Unpickle(rt, data, meter)
}

// PlanPrefetch derives a state's page set by graph traversal (§4.4).
func PlanPrefetch(root Obj, maxObjects int, meter *Meter) (*PrefetchPlan, error) {
	return objrt.PlanPrefetch(root, maxObjects, meter)
}

// ObjEqual deep-compares two objects across heaps.
func ObjEqual(a, b Obj) (bool, error) { return objrt.Equal(a, b) }

// --- the serverless platform ---

type (
	// Workflow is a DAG of serverless functions.
	Workflow = platform.Workflow
	// FunctionSpec declares one function type.
	FunctionSpec = platform.FunctionSpec
	// Edge declares a state transfer between function types.
	Edge = platform.Edge
	// Handler is a serverless function body.
	Handler = platform.Handler
	// Ctx is what a handler sees at invocation.
	Ctx = platform.Ctx
	// Engine executes workflows on a cluster under one transfer mode.
	Engine = platform.Engine
	// Cluster is the physical substrate (machines + kernels + clock).
	Cluster = platform.Cluster
	// ClusterConfig sizes a cluster.
	ClusterConfig = platform.ClusterConfig
	// Mode selects the state-transfer mechanism.
	Mode = platform.Mode
	// Options tunes a run (prefetch policy, scopes, fault injection…).
	Options = platform.Options
	// RunResult reports one request.
	RunResult = platform.RunResult
	// Plan is the §4.2 static address-space plan.
	Plan = platform.Plan
	// Spec is the JSON-serializable workflow description.
	Spec = platform.Spec
	// HandlerRegistry binds spec handler names to implementations.
	HandlerRegistry = platform.HandlerRegistry
	// Span is one traced invocation.
	Span = platform.Span
)

// Transfer modes (the comparison axis of every figure in §5).
const (
	ModeMessaging     = platform.ModeMessaging
	ModeStoragePocket = platform.ModeStoragePocket
	ModeStorageDrTM   = platform.ModeStorageDrTM
	ModeRMMAP         = platform.ModeRMMAP
	ModeRMMAPPrefetch = platform.ModeRMMAPPrefetch
)

// NewCluster builds n machines with RMMAP kernels on a shared fabric.
func NewCluster(n int, cm *CostModel) *Cluster { return platform.NewCluster(n, cm) }

// NewClusterTCP builds a cluster connected over real loopback sockets.
func NewClusterTCP(n int, cm *CostModel) (*Cluster, func(), error) {
	return platform.NewClusterTCP(n, cm)
}

// NewEngine builds an engine for one workflow and transfer mode on a
// fresh cluster.
func NewEngine(wf *Workflow, mode Mode, opts Options, cfg ClusterConfig) (*Engine, error) {
	return platform.NewEngine(wf, mode, opts, cfg)
}

// NewEngineOn builds an engine on an existing cluster.
func NewEngineOn(cluster *Cluster, wf *Workflow, mode Mode, opts Options, pods int) (*Engine, error) {
	return platform.NewEngineOn(cluster, wf, mode, opts, pods)
}

// GeneratePlan produces the static per-instance address plan (§4.2).
func GeneratePlan(wf *Workflow) (*Plan, error) { return platform.GeneratePlan(wf) }

// ParseSpec decodes an uploaded workflow spec.
func ParseSpec(data []byte) (Spec, error) { return platform.ParseSpec(data) }

// AllModes lists every transfer mode in report order.
func AllModes() []Mode { return platform.AllModes() }

// DefaultClusterConfig mirrors the paper's 10-machine testbed.
func DefaultClusterConfig() ClusterConfig { return platform.DefaultClusterConfig() }
