package rdma

import (
	"fmt"
	"sync/atomic"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// FabricKind selects the byte transport used by a rack's machines.
type FabricKind int

const (
	// FabricSim is the in-process SimFabric (the default everywhere).
	FabricSim FabricKind = iota
	// FabricTCP is the real loopback-TCP fabric; virtual-time accounting
	// is identical to FabricSim, only the bytes cross real sockets.
	FabricTCP
)

func (k FabricKind) String() string {
	if k == FabricTCP {
		return "tcp"
	}
	return "sim"
}

// LinkSpec describes one link class of a topology: a fixed per-traversal
// hop latency plus a serialization bandwidth. Bandwidth is given in GB/s
// and converted to ns/B internally (1 GB/s == 1 B/ns, so perByte = 1/GBps);
// zero bandwidth means infinitely fast links (no serialization, no
// queueing).
type LinkSpec struct {
	Hop  simtime.Duration
	GBps float64
}

func (l LinkSpec) perByte() float64 {
	if l.GBps <= 0 {
		return 0
	}
	return 1 / l.GBps
}

// LinkUse records one remote operation's occupancy of the links along its
// path, journaled during worker phases and replayed against shared link
// state at canonical commit points (DESIGN.md §14). Offset is the issuing
// meter's total at issue time — the operation's virtual start relative to
// its invocation's start — so replay places transfers where they actually
// happened in virtual time instead of piling them all at the commit
// instant (which would make an invocation's own sequential transfers queue
// against themselves).
type LinkUse struct {
	Owner  memsim.MachineID
	Target memsim.MachineID
	Bytes  int
	Offset simtime.Duration
}

// Topology is the link-cost model of a multi-rack cluster: which rack each
// machine lives in, what a ToR or spine traversal costs, per-link bandwidth
// (whose sharing produces queueing), and per-machine straggler multipliers.
//
// A remote operation between machines in the same rack traverses one ToR
// switch; across racks it traverses both ToR switches plus one spine hop
// (a two-tier leaf-spine fabric). Hop latency and link serialization are
// charged to the operation's meter immediately (CatToR/CatSpine) — they
// depend only on the transfer itself, so charging them inside a worker
// phase is deterministic. Queueing against shared links is NOT computed
// inline: link state is global mutable state, and worker phases run
// concurrently. Instead each operation journals a LinkUse against its
// owner machine (exclusively owned by that machine's batch group), and the
// engine replays the journal on the simulator thread in canonical commit
// order, charging waits to CatLinkWait. Operations issued directly on the
// simulator thread (heartbeats, replication pushes) replay immediately.
// Either way every busyUntil transition happens on the simulator thread in
// an order independent of worker count.
type Topology struct {
	rackOf []int
	racks  [][]memsim.MachineID

	tor   LinkSpec
	spine LinkSpec

	straggler    []float64
	rackFabric   []FabricKind
	crossRackTCP bool
	hasTCP       bool

	// Clock supplies virtual "now" for immediate (simulator-thread) link
	// replay; the cluster builder points it at the simulator.
	Clock func() simtime.Time

	// Per-machine uplink (machine↔ToR) and per-rack spine-link occupancy.
	uplinkBusy []simtime.Time
	spineBusy  []simtime.Time

	deferred []bool
	pending  [][]LinkUse

	crossOps   atomic.Int64
	crossBytes atomic.Int64
	waited     atomic.Int64 // total CatLinkWait in ns, for telemetry
}

// NewTopology builds a topology from a machine→rack assignment. rackOf[i]
// is the rack index of machine i; racks must be numbered 0..R-1 with every
// rack non-empty. tor and spine describe the two link classes.
func NewTopology(rackOf []int, tor, spine LinkSpec) (*Topology, error) {
	if len(rackOf) == 0 {
		return nil, fmt.Errorf("rdma: topology has no machines")
	}
	nRacks := 0
	for _, r := range rackOf {
		if r < 0 {
			return nil, fmt.Errorf("rdma: negative rack index %d", r)
		}
		if r+1 > nRacks {
			nRacks = r + 1
		}
	}
	t := &Topology{
		rackOf:     append([]int(nil), rackOf...),
		racks:      make([][]memsim.MachineID, nRacks),
		tor:        tor,
		spine:      spine,
		straggler:  make([]float64, len(rackOf)),
		rackFabric: make([]FabricKind, nRacks),
		uplinkBusy: make([]simtime.Time, len(rackOf)),
		spineBusy:  make([]simtime.Time, nRacks),
		deferred:   make([]bool, len(rackOf)),
		pending:    make([][]LinkUse, len(rackOf)),
	}
	for i, r := range rackOf {
		t.racks[r] = append(t.racks[r], memsim.MachineID(i))
	}
	for r, ms := range t.racks {
		if len(ms) == 0 {
			return nil, fmt.Errorf("rdma: rack %d has no machines", r)
		}
	}
	return t, nil
}

// Machines reports the number of machines in the topology.
func (t *Topology) Machines() int { return len(t.rackOf) }

// Racks reports the number of racks.
func (t *Topology) Racks() int { return len(t.racks) }

// RackOf reports which rack a machine lives in (-1 if out of range).
func (t *Topology) RackOf(id memsim.MachineID) int {
	if int(id) < 0 || int(id) >= len(t.rackOf) {
		return -1
	}
	return t.rackOf[id]
}

// RackMachines returns the machine IDs in rack r in ascending ID order.
func (t *Topology) RackMachines(r int) []memsim.MachineID {
	if r < 0 || r >= len(t.racks) {
		return nil
	}
	return t.racks[r]
}

// SetStraggler marks a machine as a straggler: every remote operation it
// initiates or serves is stretched by mult (≥ 1).
func (t *Topology) SetStraggler(id memsim.MachineID, mult float64) {
	if int(id) >= 0 && int(id) < len(t.straggler) {
		t.straggler[id] = mult
	}
}

// StragglerOf reports a machine's straggler multiplier (0 or 1 = none).
func (t *Topology) StragglerOf(id memsim.MachineID) float64 {
	if int(id) < 0 || int(id) >= len(t.straggler) {
		return 0
	}
	return t.straggler[id]
}

// SetRackFabric selects the byte transport for one rack's machines.
func (t *Topology) SetRackFabric(r int, k FabricKind) {
	if r >= 0 && r < len(t.rackFabric) {
		t.rackFabric[r] = k
		if k == FabricTCP {
			t.hasTCP = true
		}
	}
}

// RackFabric reports a rack's byte transport.
func (t *Topology) RackFabric(r int) FabricKind {
	if r < 0 || r >= len(t.rackFabric) {
		return FabricSim
	}
	return t.rackFabric[r]
}

// SetCrossRackTCP puts every cross-rack link on the TCP byte transport
// while intra-rack traffic stays on the in-process fabric — the mixed-
// fabric arrangement the spine-leaf-tcp recipe uses.
func (t *Topology) SetCrossRackTCP(on bool) {
	t.crossRackTCP = on
	if on {
		t.hasTCP = true
	}
}

// CrossRackTCP reports whether cross-rack links use the TCP transport.
func (t *Topology) CrossRackTCP() bool { return t.crossRackTCP }

// HasTCP reports whether any link uses the TCP fabric.
func (t *Topology) HasTCP() bool { return t.hasTCP }

// UseTCP reports whether an operation between two machines crosses the TCP
// fabric: it does when either endpoint lives in a FabricTCP rack, or when
// the racks differ and cross-rack traffic is TCP.
func (t *Topology) UseTCP(a, b memsim.MachineID) bool {
	if !t.hasTCP {
		return false
	}
	ra, rb := t.rackOf[a], t.rackOf[b]
	if t.crossRackTCP && ra != rb {
		return true
	}
	return t.rackFabric[ra] == FabricTCP || t.rackFabric[rb] == FabricTCP
}

// CrossRackOps reports the number of remote operations that crossed racks.
func (t *Topology) CrossRackOps() int64 { return t.crossOps.Load() }

// CrossRackBytes reports the payload bytes that crossed racks.
func (t *Topology) CrossRackBytes() int64 { return t.crossBytes.Load() }

// LinkWaitTotal reports cumulative shared-link queueing delay charged so
// far, in virtual nanoseconds.
func (t *Topology) LinkWaitTotal() simtime.Duration {
	return simtime.Duration(t.waited.Load())
}

// BeginDeferred switches a machine into journaling mode: link uses by
// transports owned by id accumulate in a per-machine journal instead of
// touching shared link state. The engine calls this (on the simulator
// thread) for every machine of a batch group before the group's worker
// phase starts.
func (t *Topology) BeginDeferred(id memsim.MachineID) { t.deferred[id] = true }

// EndDeferred switches a machine back to immediate replay. Called on the
// simulator thread after the worker phase joins.
func (t *Topology) EndDeferred(id memsim.MachineID) { t.deferred[id] = false }

// DrainDeferred returns and clears the link uses journaled for machine id
// since the last drain. The caller (the invocation executor, which owns
// the machine during its worker phase) attaches them to the invocation for
// replay at commit.
func (t *Topology) DrainDeferred(id memsim.MachineID) []LinkUse {
	uses := t.pending[id]
	t.pending[id] = nil
	return uses
}

// Replay applies journaled link uses against shared link state at virtual
// time now, charging queueing waits to CatLinkWait on m. It must run on
// the simulator thread; the engine calls it in canonical commit order, so
// the busyUntil sequence — and therefore every charged wait — is identical
// at any worker count.
func (t *Topology) Replay(m *simtime.Meter, uses []LinkUse, now simtime.Time) {
	for _, u := range uses {
		t.replayOne(m, u, now)
	}
}

// replayOne pushes one transfer through its links: the transfer wants to
// start at now+Offset (where it actually sat in virtual time), begins once
// every link on its path is free (the wait, charged to CatLinkWait), then
// occupies each link for that link's serialization time. Waits are charged
// but not compounded into later transfers' start times — a first-order
// congestion model, deterministic because every busyUntil transition
// happens on the simulator thread in canonical order.
func (t *Topology) replayOne(m *simtime.Meter, u LinkUse, now simtime.Time) {
	ro, rt := t.rackOf[u.Owner], t.rackOf[u.Target]
	start := now + simtime.Time(u.Offset)
	begin := start
	if b := t.uplinkBusy[u.Owner]; b > begin {
		begin = b
	}
	if b := t.uplinkBusy[u.Target]; b > begin {
		begin = b
	}
	cross := ro != rt
	if cross {
		if b := t.spineBusy[ro]; b > begin {
			begin = b
		}
		if b := t.spineBusy[rt]; b > begin {
			begin = b
		}
	}
	if wait := simtime.Duration(begin - start); wait > 0 {
		m.Charge(simtime.CatLinkWait, wait)
		t.waited.Add(int64(wait))
	}
	torSer := simtime.Bytes(u.Bytes, t.tor.perByte())
	t.uplinkBusy[u.Owner] = begin + simtime.Time(torSer)
	t.uplinkBusy[u.Target] = begin + simtime.Time(torSer)
	if cross {
		spineSer := simtime.Bytes(u.Bytes, t.spine.perByte())
		t.spineBusy[ro] = begin + simtime.Time(spineSer)
		t.spineBusy[rt] = begin + simtime.Time(spineSer)
	}
}

// account charges one remote operation's hop latency and link
// serialization to m (CatToR, and CatSpine when racks differ), then either
// journals or immediately replays the shared-link occupancy. off is the
// issuing meter's total at the operation's start (LinkUse.Offset); for
// immediate simulator-thread replay it is ignored because Clock already is
// the operation's virtual start.
func (t *Topology) account(m *simtime.Meter, owner, target memsim.MachineID, bytes int, off simtime.Duration) {
	ro, rt := t.rackOf[owner], t.rackOf[target]
	cross := ro != rt
	torHops := 1
	if cross {
		torHops = 2
	}
	m.Charge(simtime.CatToR, simtime.Scale(t.tor.Hop, torHops)+simtime.Bytes(bytes, t.tor.perByte()))
	if cross {
		m.Charge(simtime.CatSpine, t.spine.Hop+simtime.Bytes(bytes, t.spine.perByte()))
		t.crossOps.Add(1)
		t.crossBytes.Add(int64(bytes))
	}
	use := LinkUse{Owner: owner, Target: target, Bytes: bytes}
	if t.deferred[owner] {
		use.Offset = off
		t.pending[owner] = append(t.pending[owner], use)
		return
	}
	now := simtime.Time(0)
	if t.Clock != nil {
		now = t.Clock()
	}
	t.replayOne(m, use, now)
}

// stragglerMult returns the effective stretch factor for an operation
// between two machines: the slower endpoint wins.
func (t *Topology) stragglerMult(a, b memsim.MachineID) float64 {
	mult := t.straggler[a]
	if s := t.straggler[b]; s > mult {
		mult = s
	}
	if mult < 1 {
		return 1
	}
	return mult
}

// TopoTransport wraps a Transport with the topology's link-cost model:
// remote operations gain ToR/spine hop charges, link serialization,
// shared-link queueing, and straggler stretching. Local operations pass
// through untouched.
type TopoTransport struct {
	inner Transport
	topo  *Topology
	owner memsim.MachineID
}

// WithTopology wraps t in the topology's cost model.
func WithTopology(t Transport, topo *Topology) *TopoTransport {
	return &TopoTransport{inner: t, topo: topo, owner: t.Owner()}
}

// Owner implements Transport.
func (t *TopoTransport) Owner() memsim.MachineID { return t.owner }

// Read implements Transport.
func (t *TopoTransport) Read(m *simtime.Meter, target memsim.MachineID, pfn memsim.PFN, off int, buf []byte) error {
	if target == t.owner {
		return t.inner.Read(m, target, pfn, off, buf)
	}
	mult := t.topo.stragglerMult(t.owner, target)
	var base simtime.Meter
	if mult > 1 && m != nil {
		base = m.Mark()
	}
	var start simtime.Duration
	if m != nil {
		start = m.Total()
	}
	if err := t.inner.Read(m, target, pfn, off, buf); err != nil {
		return err
	}
	t.topo.account(m, t.owner, target, len(buf), start)
	if mult > 1 && m != nil {
		m.ScaleSince(base, mult)
	}
	return nil
}

// ReadPages implements Transport.
func (t *TopoTransport) ReadPages(m *simtime.Meter, target memsim.MachineID, reqs []PageRead) error {
	return t.ReadPagesCat(m, simtime.CatFault, target, reqs)
}

// ReadPagesCat implements Transport.
func (t *TopoTransport) ReadPagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []PageRead) error {
	if target == t.owner {
		return t.inner.ReadPagesCat(m, cat, target, reqs)
	}
	mult := t.topo.stragglerMult(t.owner, target)
	var base simtime.Meter
	if mult > 1 && m != nil {
		base = m.Mark()
	}
	var start simtime.Duration
	if m != nil {
		start = m.Total()
	}
	if err := t.inner.ReadPagesCat(m, cat, target, reqs); err != nil {
		return err
	}
	total := 0
	for _, r := range reqs {
		total += len(r.Buf)
	}
	t.topo.account(m, t.owner, target, total, start)
	if mult > 1 && m != nil {
		m.ScaleSince(base, mult)
	}
	return nil
}

// WritePages implements Transport.
func (t *TopoTransport) WritePages(m *simtime.Meter, target memsim.MachineID, reqs []PageWrite) error {
	return t.WritePagesCat(m, simtime.CatReplicate, target, reqs)
}

// WritePagesCat implements Transport.
func (t *TopoTransport) WritePagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []PageWrite) error {
	if target == t.owner {
		return t.inner.WritePagesCat(m, cat, target, reqs)
	}
	mult := t.topo.stragglerMult(t.owner, target)
	var base simtime.Meter
	if mult > 1 && m != nil {
		base = m.Mark()
	}
	var start simtime.Duration
	if m != nil {
		start = m.Total()
	}
	if err := t.inner.WritePagesCat(m, cat, target, reqs); err != nil {
		return err
	}
	total := 0
	for _, r := range reqs {
		total += len(r.Data)
	}
	t.topo.account(m, t.owner, target, total, start)
	if mult > 1 && m != nil {
		m.ScaleSince(base, mult)
	}
	return nil
}

// Call implements Transport.
func (t *TopoTransport) Call(m *simtime.Meter, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	return t.CallCat(m, simtime.CatMap, target, endpoint, req)
}

// CallCat implements Transport.
func (t *TopoTransport) CallCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	if target == t.owner {
		return t.inner.CallCat(m, cat, target, endpoint, req)
	}
	mult := t.topo.stragglerMult(t.owner, target)
	var base simtime.Meter
	if mult > 1 && m != nil {
		base = m.Mark()
	}
	var start simtime.Duration
	if m != nil {
		start = m.Total()
	}
	resp, err := t.inner.CallCat(m, cat, target, endpoint, req)
	if err != nil {
		return nil, err
	}
	t.topo.account(m, t.owner, target, len(req)+len(resp), start)
	if mult > 1 && m != nil {
		m.ScaleSince(base, mult)
	}
	return resp, nil
}
