package ctrl

import (
	"errors"
	"fmt"
	"os"

	"rmmap/internal/simtime"
)

// Errors returned by coordinator operations.
var (
	// ErrDown is returned by every mutating operation while the
	// coordinator is crashed. Callers (the engine) are expected to either
	// shed the request or defer the operation to a recovery backlog; ErrDown
	// escaping into a run indicates a missed Down() check.
	ErrDown = errors.New("ctrl: coordinator is down")
	// ErrUnknownRef is returned when an operation names a registration the
	// directory does not hold (e.g. released twice, or dropped by
	// reconciliation after the owning machine crashed).
	ErrUnknownRef = errors.New("ctrl: unknown registration")
)

// DefaultSnapshotBytes is the journal size that triggers a snapshot +
// log compaction. Byte-count triggered (not timer triggered) so the
// snapshot schedule is a pure function of the operation sequence and
// stays deterministic at any worker count.
const DefaultSnapshotBytes = 256 << 10

// Stats counts coordinator activity for the rmmap_ctrl_* metrics.
type Stats struct {
	Appends       int   // journal records written
	JournalBytes  int64 // bytes appended to the journal (pre-compaction)
	Snapshots     int   // snapshot compactions
	SnapshotBytes int64 // bytes written as snapshots
	Replays       int   // journal records replayed across all recoveries
	Crashes       int   // Crash() calls
	Recoveries    int   // successful Recover() calls
	EpochBumps    int   // epoch adoptions journaled (initial + per recovery)
	Deferred      int   // operations backlogged while down (NoteDeferred)
	DriftDropped  int   // directory entries dropped by reconciliation
	DriftAdopted  int   // kernel registrations adopted by reconciliation
}

// Sub returns s minus o field-wise — the per-run delta the engine
// publishes to the metrics registry (cumulative stats span runs).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Appends:       s.Appends - o.Appends,
		JournalBytes:  s.JournalBytes - o.JournalBytes,
		Snapshots:     s.Snapshots - o.Snapshots,
		SnapshotBytes: s.SnapshotBytes - o.SnapshotBytes,
		Replays:       s.Replays - o.Replays,
		Crashes:       s.Crashes - o.Crashes,
		Recoveries:    s.Recoveries - o.Recoveries,
		EpochBumps:    s.EpochBumps - o.EpochBumps,
		Deferred:      s.Deferred - o.Deferred,
		DriftDropped:  s.DriftDropped - o.DriftDropped,
		DriftAdopted:  s.DriftAdopted - o.DriftAdopted,
	}
}

// RecoveryReport describes one Recover() pass.
type RecoveryReport struct {
	Epoch         uint64 // epoch adopted by this recovery
	Replayed      int    // journal records replayed
	SnapshotBytes int    // snapshot bytes loaded
}

// ReconcileReport describes one Reconcile() pass against live kernels.
type ReconcileReport struct {
	Dropped []RegRef // directory entries without a live kernel registration
	Adopted []RegRef // kernel registrations missing from the directory
}

// MachineRegs is one live kernel's registration listing, the input to
// Reconcile. Machine is the kernel's machine index; Refs its registered
// (id, key) pairs in a deterministic order.
type MachineRegs struct {
	Machine int
	Refs    []RegRef
}

// Coordinator is the explicit control plane: address-plan issuance, the
// registration directory, the reclamation driver, and the pod-placement
// table, backed by a write-ahead journal + snapshots in simulated
// storage. It is sim-thread-only (no internal locking), like the
// admission controller: the engine invokes it from commit closures and
// timers, never from worker goroutines.
type Coordinator struct {
	cm    *simtime.CostModel
	meter *simtime.Meter // background storage meter (CatStorage)

	state *State

	// Durable simulated storage: current snapshot + journal tail. These
	// survive Crash(); the in-memory state does not (it is rebuilt from
	// them by Recover, which is the point).
	snap []byte
	log  []byte

	// SnapshotEvery is the journal-size compaction trigger in bytes.
	SnapshotEvery int

	down  bool
	epoch uint64 // current adopted epoch (0 until Start)

	stats Stats
}

// New returns an up coordinator with empty state. Call Start to adopt
// epoch 1 and journal it.
func New(cm *simtime.CostModel) *Coordinator {
	return &Coordinator{
		cm:            cm,
		meter:         simtime.NewMeter(),
		state:         NewState(),
		SnapshotEvery: DefaultSnapshotBytes,
	}
}

// Meter exposes the coordinator's background storage meter.
func (c *Coordinator) Meter() *simtime.Meter { return c.meter }

// Stats returns a copy of the activity counters.
func (c *Coordinator) Stats() Stats { return c.stats }

// Down reports whether the coordinator is crashed.
func (c *Coordinator) Down() bool { return c.down }

// Epoch returns the currently adopted coordinator epoch.
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// Live returns the number of live registration-directory entries.
func (c *Coordinator) Live() int { return len(c.state.Regs) }

// Lookup returns the directory entry for ref, or nil.
func (c *Coordinator) Lookup(ref RegRef) *Registration { return c.state.Regs[ref] }

// append journals one record: encode, charge the storage meter for the
// log write, apply to in-memory state, and compact if the log passed the
// snapshot trigger.
func (c *Coordinator) append(r Record) error {
	if c.down {
		return ErrDown
	}
	frame, err := EncodeRecord(r)
	if err != nil {
		return err
	}
	c.log = append(c.log, frame...)
	c.meter.Charge(simtime.CatStorage, c.cm.JournalAppend+simtime.Bytes(len(frame), c.cm.JournalPerByte))
	c.stats.Appends++
	c.stats.JournalBytes += int64(len(frame))
	c.state.apply(r)
	if c.SnapshotEvery > 0 && len(c.log) >= c.SnapshotEvery {
		c.compact()
	}
	return nil
}

// compact writes a snapshot of the current state and clears the journal.
func (c *Coordinator) compact() {
	snap := EncodeSnapshot(c.state)
	c.snap = snap
	c.log = c.log[:0]
	c.meter.Charge(simtime.CatStorage, c.cm.JournalAppend+simtime.Bytes(len(snap), c.cm.JournalPerByte))
	c.stats.Snapshots++
	c.stats.SnapshotBytes += int64(len(snap))
}

// Start adopts epoch 1 and journals it. Called once at engine build.
func (c *Coordinator) Start() error {
	if c.epoch != 0 {
		return fmt.Errorf("ctrl: Start called twice (epoch %d)", c.epoch)
	}
	c.epoch = 1
	c.stats.EpochBumps++
	return c.append(Record{Kind: RecEpoch, Epoch: 1})
}

// IssueSlot journals one issued address-plan slot.
func (c *Coordinator) IssueSlot(fn string, inst int, start, end uint64) error {
	return c.append(Record{Kind: RecSlot, Slot: PlanSlot{Fn: fn, Inst: inst, Start: start, End: end}})
}

// Place journals one pod-placement decision.
func (c *Coordinator) Place(pod, machine int) error {
	return c.append(Record{Kind: RecPlace, Pod: pod, Machine: machine})
}

// Register inserts a directory entry with one reference.
func (c *Coordinator) Register(ref RegRef, machine int, allowed []uint64) error {
	return c.append(Record{Kind: RecRegister, Ref: ref, Machine: machine, Allowed: allowed})
}

// AddRef adds one payload reference to an existing entry.
func (c *Coordinator) AddRef(ref RegRef) error {
	if c.down {
		return ErrDown
	}
	if _, ok := c.state.Regs[ref]; !ok {
		return ErrUnknownRef
	}
	return c.append(Record{Kind: RecAddRef, Ref: ref})
}

// ExtendACL journals additional allowed consumers for an entry.
func (c *Coordinator) ExtendACL(ref RegRef, more []uint64) error {
	if c.down {
		return ErrDown
	}
	if _, ok := c.state.Regs[ref]; !ok {
		return ErrUnknownRef
	}
	return c.append(Record{Kind: RecACL, Ref: ref, Allowed: more})
}

// Release drops one reference and reports the owning machine and whether
// this was the last reference (the caller should then drive reclamation
// and journal it with NoteReclaim).
func (c *Coordinator) Release(ref RegRef) (machine int, last bool, err error) {
	if c.down {
		return 0, false, ErrDown
	}
	reg, ok := c.state.Regs[ref]
	if !ok {
		return 0, false, ErrUnknownRef
	}
	machine = reg.Machine
	last = reg.Refs == 1
	if err := c.append(Record{Kind: RecRelease, Ref: ref}); err != nil {
		return 0, false, err
	}
	return machine, last, nil
}

// NoteReclaim journals that a reclamation order (deregister_mem) was
// issued for ref on machine.
func (c *Coordinator) NoteReclaim(ref RegRef, machine int) error {
	return c.append(Record{Kind: RecReclaim, Ref: ref, Machine: machine})
}

// NoteDeferred counts one control-plane operation backlogged while down.
func (c *Coordinator) NoteDeferred() { c.stats.Deferred++ }

// Crash takes the coordinator down: the in-memory state is discarded
// (recovery must rebuild it from durable storage) and every operation
// fails with ErrDown until Recover.
func (c *Coordinator) Crash() {
	if c.down {
		return
	}
	c.down = true
	c.stats.Crashes++
	c.state = NewState() // volatile view dies with the process
	c.epoch = 0
}

// Recover brings a crashed coordinator back: load the snapshot, replay
// the journal tail, adopt a bumped epoch, and journal the adoption. The
// caller must then Reconcile against live kernels and broadcast the new
// epoch before resuming admission.
func (c *Coordinator) Recover() (RecoveryReport, error) {
	if !c.down {
		return RecoveryReport{}, fmt.Errorf("ctrl: Recover on a live coordinator")
	}
	st, replayed, err := LoadState(EncodeSave(c.snap, c.log))
	if err != nil {
		return RecoveryReport{}, err
	}
	c.state = st
	c.down = false
	c.stats.Replays += replayed
	c.stats.Recoveries++

	c.epoch = st.Epoch + 1
	c.stats.EpochBumps++
	if err := c.append(Record{Kind: RecEpoch, Epoch: c.epoch}); err != nil {
		return RecoveryReport{}, err
	}
	return RecoveryReport{Epoch: c.epoch, Replayed: replayed, SnapshotBytes: len(c.snap)}, nil
}

// Reconcile compares the directory against live kernels' listings.
// Kernels are authoritative: a directory entry whose listed machine no
// longer holds the registration is dropped; a kernel registration the
// directory lost is adopted with one reference. Machines not present in
// listings (crashed) are left untouched — their entries are released by
// the normal data-plane path as in-flight work completes.
func (c *Coordinator) Reconcile(listings []MachineRegs) ReconcileReport {
	var rep ReconcileReport
	if c.down {
		return rep
	}
	listed := make(map[int]map[RegRef]bool, len(listings))
	for _, l := range listings {
		set := make(map[RegRef]bool, len(l.Refs))
		for _, ref := range l.Refs {
			set[ref] = true
		}
		listed[l.Machine] = set
	}

	// Pass 1: directory entries without a live kernel registration.
	for _, l := range listings {
		for ref, reg := range c.state.Regs {
			if reg.Machine != l.Machine {
				continue
			}
			if !listed[l.Machine][ref] {
				rep.Dropped = append(rep.Dropped, ref)
			}
		}
	}
	sortRefs(rep.Dropped)
	for _, ref := range rep.Dropped {
		delete(c.state.Regs, ref)
		c.stats.DriftDropped++
	}

	// Pass 2: kernel registrations missing from the directory.
	for _, l := range listings {
		for _, ref := range l.Refs {
			if _, ok := c.state.Regs[ref]; ok {
				continue
			}
			rep.Adopted = append(rep.Adopted, ref)
			_ = c.append(Record{Kind: RecRegister, Ref: ref, Machine: l.Machine})
			c.stats.DriftAdopted++
		}
	}
	return rep
}

func sortRefs(refs []RegRef) {
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && less(refs[j], refs[j-1]); j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
}

func less(a, b RegRef) bool {
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return a.Key < b.Key
}

// Save returns the durable image (snapshot + journal tail) as one blob.
func (c *Coordinator) Save() []byte { return EncodeSave(c.snap, c.log) }

// SaveFile writes the durable image to path (for rmmap plan -verify and
// rmmap chaos -ctrl-journal).
func (c *Coordinator) SaveFile(path string) error {
	return os.WriteFile(path, c.Save(), 0o644)
}

// LoadStateFile rebuilds a State from a save file written by SaveFile.
func LoadStateFile(path string) (*State, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return LoadState(data)
}
