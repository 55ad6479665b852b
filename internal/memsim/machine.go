package memsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Page geometry. 4 KB pages match the paper's Linux target.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// PFN is a physical frame number, an index into a Machine's frame table.
type PFN uint64

// VPN is a virtual page number (virtual address >> PageShift).
type VPN uint64

// PageOf returns the VPN containing a virtual address.
func PageOf(vaddr uint64) VPN { return VPN(vaddr >> PageShift) }

// PageBase returns the first address of a VPN.
func (v VPN) Base() uint64 { return uint64(v) << PageShift }

// MachineID identifies a machine in the cluster; it doubles as the
// "mac_addr" argument of rmap.
type MachineID int

// Frame-lock striping (DESIGN.md §12). Frame state (bytes + refcount) is
// guarded by one of frameShardCount striped locks instead of a single
// machine mutex, so concurrent remote readers of disjoint regions never
// convoy. The shard function drops the two low PFN bits first: batched
// operations over the mostly-consecutive frames of a readahead window then
// take one lock per run of four frames, while independent fault streams
// (different regions, hence distant PFNs) still spread across shards.
const (
	frameShardCount = 64
	frameShardMask  = frameShardCount - 1
)

func frameShard(pfn PFN) int { return int(pfn>>2) & frameShardMask }

// frameLock is a cache-line padded mutex: neighbouring shards must not
// false-share under cross-machine read storms.
type frameLock struct {
	sync.Mutex
	_ [56]byte
}

// frame is one physical page. Frames are reference counted so the kernel
// can keep shadow copies of registered memory alive after the producer
// exits (§4.1 "Management of the producer's memory lifecycle"). A frame
// slot, once allocated, is never released: refs == 0 marks it free and its
// page buffer is retained for the next allocation of the same PFN — the
// steady-state fault path recycles buffers instead of allocating
// (zero-allocation contract, DESIGN.md §12).
type frame struct {
	data []byte
	refs int // guarded by the PFN's shard lock; 0 = free
}

// ErrMachineCrashed is returned by checked frame reads after Crash: the
// machine's frames — including any shadow copies of registered state — are
// gone, and every remote access to them must surface an error the platform
// can recover from (§6 fault tolerance).
var ErrMachineCrashed = errors.New("memsim: machine crashed")

// ErrBadPFN is returned by checked frame accesses for a PFN that is out of
// range or not allocated. Local accesses panic on it instead: there only a
// bug can produce one.
var ErrBadPFN = errors.New("memsim: bad PFN")

// Machine owns a pool of physical frames. It is safe for concurrent use:
// the TCP fabric serves one-sided reads from other goroutines, and the
// parallel engine's worker groups hit a shared producer's frame table from
// many goroutines at once.
//
// Locking model (DESIGN.md §12): allocMu guards allocation state only
// (free list, high-water mark, live/peak accounting, frame-table growth);
// per-frame bytes and refcounts are guarded by 64 striped locks keyed by
// PFN. The frame table itself is a grow-only slice republished through an
// atomic pointer, so lookups never take a lock. allocMu and a shard lock
// are never held together (alloc initializes the frame after releasing
// allocMu; Unref pushes to the free list after releasing the shard lock),
// so there is no lock-order cycle.
type Machine struct {
	id      MachineID
	crashed atomic.Bool

	// frames is the grow-only frame table. Slots are written once (under
	// allocMu, on first allocation of that PFN) and the *frame objects are
	// reused forever after; growth copies into a fresh slice and publishes
	// it atomically.
	frames atomic.Pointer[[]*frame]

	allocMu sync.Mutex
	free    []PFN // LIFO: most recently freed is reused first
	next    int   // first never-allocated PFN
	live    int
	peak    int

	shards [frameShardCount]frameLock
}

// NewMachine returns an empty machine.
func NewMachine(id MachineID) *Machine {
	m := &Machine{id: id}
	empty := make([]*frame, 0)
	m.frames.Store(&empty)
	return m
}

// ID returns the machine's identifier.
func (m *Machine) ID() MachineID { return m.id }

// frame returns the slot for pfn without locking; the caller validates
// liveness (refs > 0) under the PFN's shard lock where the operation's
// semantics require it.
func (m *Machine) frame(pfn PFN) *frame {
	arr := *m.frames.Load()
	if int(pfn) >= len(arr) || arr[pfn] == nil {
		panic(fmt.Sprintf("memsim: machine %d: bad PFN %d", m.id, pfn))
	}
	return arr[pfn]
}

func (m *Machine) lock(pfn PFN) *frameLock { return &m.shards[frameShard(pfn)] }

// AllocFrame allocates a zeroed frame with refcount 1.
func (m *Machine) AllocFrame() PFN { return m.allocFrame(true) }

// AllocFrameUnzeroed allocates a frame with refcount 1 without clearing a
// recycled page buffer. Callers must overwrite the full page before the
// frame is published (the fetch paths do: a fabric read fills all 4 KB).
func (m *Machine) AllocFrameUnzeroed() PFN { return m.allocFrame(false) }

func (m *Machine) allocFrame(zero bool) PFN {
	m.allocMu.Lock()
	var pfn PFN
	var f *frame
	recycled := false
	if n := len(m.free); n > 0 {
		pfn = m.free[n-1]
		m.free = m.free[:n-1]
		f = (*m.frames.Load())[pfn]
		recycled = true
	} else {
		pfn = PFN(m.next)
		arr := *m.frames.Load()
		if m.next == len(arr) {
			grown := make([]*frame, max(64, len(arr)*2))
			copy(grown, arr)
			m.frames.Store(&grown)
			arr = grown
		}
		f = &frame{data: make([]byte, PageSize)}
		arr[pfn] = f
		m.next++
	}
	m.live++
	if m.live > m.peak {
		m.peak = m.live
	}
	m.allocMu.Unlock()

	// Initialize under the shard lock: the lock hand-off is what makes the
	// fresh refcount (and, for zeroed frames, the cleared bytes) visible to
	// the next goroutine that touches this PFN.
	s := m.lock(pfn)
	s.Lock()
	f.refs = 1
	if zero && recycled {
		clear(f.data)
	}
	s.Unlock()
	return pfn
}

// BorrowFrame exposes a frame's page buffer for direct filling — the fetch
// paths read fabric bytes straight into the frame, eliminating the staging
// buffer and its copy. The caller must hold the only reference (a frame
// fresh from AllocFrame/AllocFrameUnzeroed, not yet installed anywhere)
// and must call SealFrame (or publish the frame through an operation that
// takes its shard lock, e.g. a cache install's Ref) once filled.
func (m *Machine) BorrowFrame(pfn PFN) []byte {
	return m.frame(pfn).data
}

// SealFrame publishes raw writes made through BorrowFrame: acquiring the
// frame's shard lock orders the fill before any later shard-locked access
// from another goroutine.
func (m *Machine) SealFrame(pfn PFN) {
	s := m.lock(pfn)
	s.Lock()
	//lint:ignore SA2001 empty critical section is the point: the release →
	// acquire pair is the happens-before edge for the preceding raw fill.
	s.Unlock()
}

// SealFrames is SealFrame over a batch, taking each shard lock once per
// run of same-shard frames (consecutive PFNs share shards in runs of 4).
func (m *Machine) SealFrames(pfns []PFN) {
	for i := 0; i < len(pfns); {
		s := m.lock(pfns[i])
		s.Lock()
		j := i + 1
		for j < len(pfns) && m.lock(pfns[j]) == s {
			j++
		}
		s.Unlock()
		i = j
	}
}

// Ref increments a frame's reference count (shadow copies).
func (m *Machine) Ref(pfn PFN) {
	f := m.frame(pfn)
	s := m.lock(pfn)
	s.Lock()
	if f.refs == 0 {
		s.Unlock()
		panic(fmt.Sprintf("memsim: machine %d: bad PFN %d", m.id, pfn))
	}
	f.refs++
	s.Unlock()
}

// RefBatch increments the reference counts of a batch of frames in one
// shard-ordered pass: one lock acquisition per run of same-shard PFNs
// instead of a lock round-trip per page (the batched fault-install path).
func (m *Machine) RefBatch(pfns []PFN) {
	for i := 0; i < len(pfns); {
		s := m.lock(pfns[i])
		s.Lock()
		j := i
		for j < len(pfns) && m.lock(pfns[j]) == s {
			f := m.frame(pfns[j])
			if f.refs == 0 {
				s.Unlock()
				panic(fmt.Sprintf("memsim: machine %d: bad PFN %d", m.id, pfns[j]))
			}
			f.refs++
			j++
		}
		s.Unlock()
		i = j
	}
}

// Unref decrements a frame's reference count, freeing it at zero. The
// frame slot and its page buffer are retained for reuse; only the
// allocation bookkeeping changes.
func (m *Machine) Unref(pfn PFN) {
	f := m.frame(pfn)
	s := m.lock(pfn)
	s.Lock()
	f.refs--
	r := f.refs
	s.Unlock()
	if r < 0 {
		panic(fmt.Sprintf("memsim: machine %d: PFN %d refcount underflow", m.id, pfn))
	}
	if r == 0 {
		m.allocMu.Lock()
		m.free = append(m.free, pfn)
		m.live--
		m.allocMu.Unlock()
	}
}

// Refs reports a frame's current reference count.
func (m *Machine) Refs(pfn PFN) int {
	f := m.frame(pfn)
	s := m.lock(pfn)
	s.Lock()
	r := f.refs
	s.Unlock()
	if r == 0 {
		panic(fmt.Sprintf("memsim: machine %d: bad PFN %d", m.id, pfn))
	}
	return r
}

// Crash marks the machine failed: its frames become unreadable through the
// checked read path, so consumer page faults on rmapped pages surface as
// remote-fault errors. Crashing is permanent for the simulation's lifetime
// (a restarted machine would be a new Machine).
func (m *Machine) Crash() { m.crashed.Store(true) }

// Crashed reports whether the machine has failed.
func (m *Machine) Crashed() bool { return m.crashed.Load() }

// remoteFrame returns pfn's frame with its shard lock held, for a remote
// access path: the PFN came off the wire, so a dead machine is
// ErrMachineCrashed and a PFN that is out of range or not allocated is
// ErrBadPFN, not a panic.
func (m *Machine) remoteFrame(pfn PFN) (*frame, *frameLock, error) {
	if m.crashed.Load() {
		return nil, nil, fmt.Errorf("%w: machine %d", ErrMachineCrashed, m.id)
	}
	if arr := *m.frames.Load(); pfn < PFN(len(arr)) && arr[pfn] != nil {
		f, s := arr[pfn], m.lock(pfn)
		s.Lock()
		if f.refs > 0 {
			return f, s, nil
		}
		s.Unlock()
	}
	return nil, nil, fmt.Errorf("%w: machine %d: PFN %d", ErrBadPFN, m.id, pfn)
}

// ReadFrameErr is ReadFrame for remote access paths: it fails with
// ErrMachineCrashed instead of serving bytes from a dead machine, and with
// ErrBadPFN for a frame that is not allocated.
func (m *Machine) ReadFrameErr(pfn PFN, off int, buf []byte) error {
	if off < 0 || off+len(buf) > PageSize {
		panic(fmt.Sprintf("memsim: ReadFrame out of range off=%d len=%d", off, len(buf)))
	}
	f, s, err := m.remoteFrame(pfn)
	if err != nil {
		return err
	}
	copy(buf, f.data[off:])
	s.Unlock()
	return nil
}

// ReadFrame copies bytes out of a frame. This is the one-sided RDMA read
// path: it touches only frame storage, never an address space, mirroring
// CPU/OS bypass on the remote machine.
func (m *Machine) ReadFrame(pfn PFN, off int, buf []byte) {
	if off < 0 || off+len(buf) > PageSize {
		panic(fmt.Sprintf("memsim: ReadFrame out of range off=%d len=%d", off, len(buf)))
	}
	f := m.frame(pfn)
	s := m.lock(pfn)
	s.Lock()
	copy(buf, f.data[off:])
	s.Unlock()
}

// WriteFrameErr is WriteFrame for remote access paths (replication
// pushes): it fails with ErrMachineCrashed instead of mutating a dead
// machine's frames, and with ErrBadPFN for a frame that is not allocated.
func (m *Machine) WriteFrameErr(pfn PFN, off int, data []byte) error {
	if off < 0 || off+len(data) > PageSize {
		panic(fmt.Sprintf("memsim: WriteFrame out of range off=%d len=%d", off, len(data)))
	}
	f, s, err := m.remoteFrame(pfn)
	if err != nil {
		return err
	}
	copy(f.data[off:], data)
	s.Unlock()
	return nil
}

// WriteFrame copies bytes into a frame (used by address spaces and the
// CoW-break path).
func (m *Machine) WriteFrame(pfn PFN, off int, data []byte) {
	if off < 0 || off+len(data) > PageSize {
		panic(fmt.Sprintf("memsim: WriteFrame out of range off=%d len=%d", off, len(data)))
	}
	f := m.frame(pfn)
	s := m.lock(pfn)
	s.Lock()
	copy(f.data[off:], data)
	s.Unlock()
}

// CopyFrame duplicates src into a fresh frame and returns it (CoW break).
// The copy runs under both frames' shard locks, acquired in shard order
// (the global order that keeps multi-shard critical sections deadlock-free).
func (m *Machine) CopyFrame(src PFN) PFN {
	dst := m.allocFrame(false)
	fs, fd := m.frame(src), m.frame(dst)
	ls, ld := m.lock(src), m.lock(dst)
	switch {
	case ls == ld:
		ls.Lock()
	case frameShard(src) < frameShard(dst):
		ls.Lock()
		ld.Lock()
	default:
		ld.Lock()
		ls.Lock()
	}
	copy(fd.data, fs.data)
	if ls != ld {
		ld.Unlock()
	}
	ls.Unlock()
	return dst
}

// LiveFrames reports currently allocated frames (memory accounting for
// Fig 16a).
func (m *Machine) LiveFrames() int {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	return m.live
}

// PeakFrames reports the high-water mark of allocated frames.
func (m *Machine) PeakFrames() int {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	return m.peak
}

// LiveBytes is LiveFrames in bytes.
func (m *Machine) LiveBytes() int { return m.LiveFrames() * PageSize }

// PeakBytes is PeakFrames in bytes.
func (m *Machine) PeakBytes() int { return m.PeakFrames() * PageSize }
