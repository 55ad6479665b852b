package kernel

import (
	"encoding/binary"
	"fmt"

	"rmmap/internal/memsim"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
	"rmmap/internal/wire"
)

// Async state replication (§6 fault tolerance extension).
//
// When replication is enabled, every register_mem schedules a background
// job that copies the registration's shadow frames to the kernel's backup
// machines: one prepare RPC allocates backup frames and records a replica
// entry, then batches of one-sided doorbell writes push the page bytes
// (bypassing the backup CPU, like reads), each followed by a small commit
// RPC that advances the backup's watermark — one-sided writes are
// invisible to the backup's kernel, so progress must be told, not seen.
// All charges go to CatReplicate on a background meter: replication rides
// behind the producer's invocation in virtual time, off its critical path.
//
// The watermark makes partial replication detectable: failover (see
// mapping.go) is refused unless done == total, falling back to the
// platform's re-execution rung. A producer crash mid-replication simply
// stops the job — the stuck watermark is the refusal.

// replBatchPages is how many pages one push batch carries.
const replBatchPages = 64

type replicaKey struct {
	origin memsim.MachineID
	id     FuncID
	key    Key
}

// appendReplicaKey encodes the replica key every backup-side request
// opens with: origin u64 | id u64 | key u64.
func appendReplicaKey(b []byte, rk replicaKey) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(rk.origin))
	b = binary.LittleEndian.AppendUint64(b, uint64(rk.id))
	return binary.LittleEndian.AppendUint64(b, uint64(rk.key))
}

// readReplicaKey decodes what appendReplicaKey encodes.
func readReplicaKey(r *wire.Reader) replicaKey {
	return replicaKey{memsim.MachineID(r.U64()), FuncID(r.U64()), Key(r.U64())}
}

type replicaPage struct {
	vpn     memsim.VPN
	prodPFN memsim.PFN // producer frame: the logical identity (cache keys)
	local   memsim.PFN // backup frame holding the copy
}

// replicaEntry is one registration this machine backs up for a peer.
type replicaEntry struct {
	start, end uint64
	gen        uint64
	total      int
	done       int // replication watermark, in pages
	pages      []replicaPage
}

type replTarget struct {
	mac    memsim.MachineID
	locals []memsim.PFN // backup frames aligned with the job's pages
	failed bool
}

type replJob struct {
	id         FuncID
	key        Key
	gen        uint64
	start, end uint64
	pages      []memsim.PageRef // the registration's VPN-ordered snapshot
	targets    []*replTarget
	next       int // pages pushed so far
}

// EnableReplication configures this kernel to asynchronously replicate
// every registration to backups; sched schedules deferred virtual-time
// work (the platform wires Sim.After). Empty backups or a nil sched
// disables replication.
func (k *Kernel) EnableReplication(backups []memsim.MachineID, sched func(d simtime.Duration, fn func())) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.replBackups = append([]memsim.MachineID(nil), backups...)
	k.replSched = sched
	if k.replMeter == nil {
		k.replMeter = simtime.NewMeter()
	}
	if k.replicas == nil {
		k.replicas = make(map[replicaKey]*replicaEntry)
	}
}

// ReplicationMeter exposes the background meter replication charges
// (CatReplicate); nil until replication is enabled.
func (k *Kernel) ReplicationMeter() *simtime.Meter { return k.replMeter }

// ReplicatedBytes counts page bytes this kernel pushed to backups.
func (k *Kernel) ReplicatedBytes() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.replicatedBytes
}

// ReplicaWatermark reports the replication progress this machine holds
// for a peer registration (backup role); ok is false without an entry.
func (k *Kernel) ReplicaWatermark(origin memsim.MachineID, id FuncID, key Key) (done, total int, ok bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	e, ok := k.replicas[replicaKey{origin, id, key}]
	if !ok {
		return 0, 0, false
	}
	return e.done, e.total, true
}

// scheduleReplicationLocked kicks off the async replication job for a
// fresh registration. Caller holds k.mu.
func (k *Kernel) scheduleReplicationLocked(rk regKey, e *regEntry) {
	if len(e.backups) == 0 || k.replSched == nil || len(e.snapshot) == 0 {
		return
	}
	job := &replJob{
		id: rk.id, key: rk.key, gen: e.gen,
		start: e.start, end: e.end, pages: e.snapshot,
	}
	for _, b := range e.backups {
		job.targets = append(job.targets, &replTarget{mac: b})
	}
	k.replSched(0, func() { k.replPrepare(job) })
}

// jobLive re-checks that the registration the job copies still exists at
// the same generation: deregistration frees the shadow frames, and
// re-registration supersedes the job with a fresh one.
func (k *Kernel) jobLive(job *replJob) bool {
	if k.machine.Crashed() {
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	e, ok := k.regs[regKey{job.id, job.key}]
	return ok && e.gen == job.gen
}

// replPrepare sends the prepare RPC to every backup, then schedules the
// first push batch after the virtual time the prepares took.
func (k *Kernel) replPrepare(job *replJob) {
	if !k.jobLive(job) {
		return
	}
	m := k.replMeter
	before := m.Total()
	// prep request: replica key | gen u64 | start u64 | end u64 |
	// count u32 | count × (vpn u64, prodPFN u64), in snapshot order
	req := appendReplicaKey(make([]byte, 0, 52+16*len(job.pages)), replicaKey{k.machine.ID(), job.id, job.key})
	req = binary.LittleEndian.AppendUint64(req, job.gen)
	req = binary.LittleEndian.AppendUint64(req, job.start)
	req = binary.LittleEndian.AppendUint64(req, job.end)
	req = binary.LittleEndian.AppendUint32(req, uint32(len(job.pages)))
	for _, p := range job.pages {
		req = binary.LittleEndian.AppendUint64(req, uint64(p.VPN))
		req = binary.LittleEndian.AppendUint64(req, uint64(p.PFN))
	}
	live := false
	for _, t := range job.targets {
		resp, err := k.transport.CallCat(m, simtime.CatReplicate, t.mac, ReplPrepareEndpoint, req)
		r := wire.NewReader(resp)
		if err != nil || r.Len() != 8*len(job.pages) {
			t.failed = true
			continue
		}
		t.locals = make([]memsim.PFN, len(job.pages))
		for i := range t.locals {
			t.locals[i] = memsim.PFN(r.U64())
		}
		live = true
	}
	if !live {
		return
	}
	k.replSched(m.Total()-before, func() { k.replStep(job) })
}

// replStep pushes one batch of pages to every live backup and commits the
// new watermark, then schedules the next batch after this one's virtual
// duration.
func (k *Kernel) replStep(job *replJob) {
	if !k.jobLive(job) {
		return
	}
	m := k.replMeter
	before := m.Total()
	lo := job.next
	hi := lo + replBatchPages
	if hi > len(job.pages) {
		hi = len(job.pages)
	}
	buf := make([]byte, (hi-lo)*memsim.PageSize)
	page := func(i int) []byte { return buf[(i-lo)*memsim.PageSize:][:memsim.PageSize] }
	for i := lo; i < hi; i++ {
		k.machine.ReadFrame(job.pages[i].PFN, 0, page(i))
	}
	// commit request: replica key | done u32
	commit := appendReplicaKey(make([]byte, 0, 28), replicaKey{k.machine.ID(), job.id, job.key})
	commit = binary.LittleEndian.AppendUint32(commit, uint32(hi))
	live := false
	for _, t := range job.targets {
		if t.failed {
			continue
		}
		reqs := make([]rdma.PageWrite, hi-lo)
		for i := lo; i < hi; i++ {
			reqs[i-lo] = rdma.PageWrite{PFN: t.locals[i], Data: page(i)}
		}
		if err := k.transport.WritePagesCat(m, simtime.CatReplicate, t.mac, reqs); err != nil {
			t.failed = true
			continue
		}
		if _, err := k.transport.CallCat(m, simtime.CatReplicate, t.mac, ReplCommitEndpoint, commit); err != nil {
			t.failed = true
			continue
		}
		k.mu.Lock()
		k.replicatedBytes += int64((hi - lo) * memsim.PageSize)
		k.mu.Unlock()
		live = true
	}
	job.next = hi
	if live && job.next < len(job.pages) {
		k.replSched(m.Total()-before, func() { k.replStep(job) })
	}
}

// scheduleReplicaDrop asynchronously frees the replicas of a deregistered
// registration on its backups (best-effort: a dead backup keeps nothing
// anyone can reach).
func (k *Kernel) scheduleReplicaDrop(id FuncID, key Key, backups []memsim.MachineID) {
	if len(backups) == 0 || k.replSched == nil {
		return
	}
	k.replSched(0, func() {
		if k.machine.Crashed() {
			return
		}
		req := appendReplicaKey(make([]byte, 0, 24), replicaKey{k.machine.ID(), id, key}) // drop request
		for _, b := range backups {
			_, _ = k.transport.CallCat(k.replMeter, simtime.CatReplicate, b, ReplDropEndpoint, req)
		}
	})
}

// --- Backup-side handlers ---

// handleReplPrepare serves a prep request (encoded by replPrepare). Its
// reply is count × (localPFN u64).
//
// The records are strictly VPN-increasing (the producer pushes its
// snapshot as-is); the replica keeps that order, which is the order
// handleReplicaAuth replies in.
func (k *Kernel) handleReplPrepare(m *simtime.Meter, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	rk := readReplicaKey(&r)
	e := &replicaEntry{gen: r.U64(), start: r.U64(), end: r.U64()}
	e.total = r.Count(uint64(r.U32()), 16)
	e.pages = make([]replicaPage, e.total)
	for i := range e.pages {
		e.pages[i] = replicaPage{vpn: memsim.VPN(r.U64()), prodPFN: memsim.PFN(r.U64())}
	}
	if !r.Done() {
		return nil, fmt.Errorf("kernel: bad replica prepare request")
	}
	for i := 1; i < len(e.pages); i++ {
		if e.pages[i].vpn <= e.pages[i-1].vpn {
			return nil, fmt.Errorf("%w: replica prepare record %d", ErrRecordOrder, i)
		}
	}
	// Every frame below is one the peer's own range accounts for: a
	// page-aligned [start, end), no more records than it has pages, and
	// every record inside it. Records are ordered, so the first and last
	// bound them all.
	if e.start%memsim.PageSize != 0 || e.end%memsim.PageSize != 0 || e.end < e.start ||
		uint64(e.total) > (e.end-e.start)/memsim.PageSize {
		return nil, fmt.Errorf("%w: replica prepare of %d pages for [%#x,%#x)", ErrRangeOutside, e.total, e.start, e.end)
	}
	if n := len(e.pages); n > 0 && (e.pages[0].vpn < memsim.PageOf(e.start) || e.pages[n-1].vpn >= memsim.PageOf(e.end)) {
		return nil, fmt.Errorf("%w: replica prepare records [%#x,%#x] for [%#x,%#x)",
			ErrRangeOutside, e.pages[0].vpn, e.pages[n-1].vpn, e.start, e.end)
	}
	resp := make([]byte, 0, 8*e.total)
	for i := range e.pages {
		e.pages[i].local = k.machine.AllocFrame()
		resp = binary.LittleEndian.AppendUint64(resp, uint64(e.pages[i].local))
	}
	k.mu.Lock()
	if k.replicas == nil {
		k.replicas = make(map[replicaKey]*replicaEntry)
	}
	old := k.replicas[rk]
	k.replicas[rk] = e
	k.mu.Unlock()
	if old != nil {
		for _, p := range old.pages {
			k.machine.Unref(p.local)
		}
	}
	return resp, nil
}

// handleReplCommit serves a commit request (encoded by replStep).
func (k *Kernel) handleReplCommit(m *simtime.Meter, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	rk := readReplicaKey(&r)
	done := int(r.U32())
	if !r.Done() {
		return nil, fmt.Errorf("kernel: bad replica commit request")
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	e, ok := k.replicas[rk]
	if !ok {
		return nil, fmt.Errorf("%w: no replica for machine %d id %d", ErrNotRegistered, rk.origin, rk.id)
	}
	if done > e.total {
		done = e.total
	}
	if done > e.done {
		e.done = done
	}
	return []byte{1}, nil
}

// handleReplDrop serves a drop request (encoded by scheduleReplicaDrop).
func (k *Kernel) handleReplDrop(m *simtime.Meter, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	rk := readReplicaKey(&r)
	if !r.Done() {
		return nil, fmt.Errorf("kernel: bad replica drop request")
	}
	k.mu.Lock()
	e := k.replicas[rk]
	delete(k.replicas, rk)
	k.mu.Unlock()
	if e != nil {
		for _, p := range e.pages {
			k.machine.Unref(p.local)
		}
	}
	return []byte{1}, nil
}

// handleReplicaAuth serves a replica auth request (encoded by
// replicaAuthCall). Its reply:
//
//	gen u64 | complete u8 | count u32 | count × (vpn u64, prodPFN u64, localPFN u64)
//
// with the records strictly VPN-increasing. Like the producer's auth RPC,
// possession of (id, key) is the credential; the producer's ACL is not
// replicated, so ACL-restricted registrations simply fence to
// re-execution if their producer dies.
func (k *Kernel) handleReplicaAuth(m *simtime.Meter, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	rk := readReplicaKey(&r)
	r.U64() // consumer: the ACL is not replicated
	start := r.U64()
	end := r.U64()
	if !r.Done() {
		return nil, fmt.Errorf("kernel: bad replica auth request")
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	e, ok := k.replicas[rk]
	if !ok {
		return nil, fmt.Errorf("%w: no replica for machine %d id %d", ErrAuth, rk.origin, rk.id)
	}
	if start < e.start || end > e.end {
		return nil, fmt.Errorf("%w: [%#x,%#x) not within [%#x,%#x)",
			ErrRangeOutside, start, end, e.start, e.end)
	}
	resp := binary.LittleEndian.AppendUint64(make([]byte, 0, 13+24*len(e.pages)), e.gen)
	resp = append(resp, 0, 0, 0, 0, 0) // complete u8, then count u32, back-patched below
	if e.done == e.total {
		resp[8] = 1
	}
	count := 0
	for _, p := range e.pages {
		if p.vpn.Base() >= start && p.vpn.Base() < end {
			resp = binary.LittleEndian.AppendUint64(resp, uint64(p.vpn))
			resp = binary.LittleEndian.AppendUint64(resp, uint64(p.prodPFN))
			resp = binary.LittleEndian.AppendUint64(resp, uint64(p.local))
			count++
		}
	}
	binary.LittleEndian.PutUint32(resp[9:], uint32(count))
	return resp, nil
}

// replicaAuthCall queries backup b for origin's replica page table,
// returning the replica generation, completeness, and the VPN-ordered
// logical (producer) and physical (backup) page tables for [start, end).
func (k *Kernel) replicaAuthCall(m *simtime.Meter, b, origin memsim.MachineID, id FuncID, key Key, start, end uint64, consumer FuncID) (gen uint64, complete bool, logical, phys []memsim.PageRef, err error) {
	// replica auth request: replica key | consumer u64 | start u64 | end u64
	req := appendReplicaKey(make([]byte, 0, 48), replicaKey{origin, id, key})
	req = binary.LittleEndian.AppendUint64(req, uint64(consumer))
	req = binary.LittleEndian.AppendUint64(req, start)
	req = binary.LittleEndian.AppendUint64(req, end)
	resp, err := k.transport.CallCat(m, simtime.CatMap, b, ReplicaEndpoint, req)
	if err != nil {
		return 0, false, nil, nil, err
	}
	ra, err := parseReplicaAuthResponse(resp)
	if err != nil {
		return 0, false, nil, nil, err
	}
	return ra.gen, ra.complete, ra.logical, ra.phys, nil
}
