package kernel

import (
	"errors"
	"fmt"
	"sort"
)

// Coordinator-epoch fencing (DESIGN.md §13).
//
// Every control-plane command that can destroy data (today: reclamation)
// carries the epoch of the coordinator incarnation that issued it.
// Kernels remember the highest epoch they have seen and refuse commands
// from lower ones, exactly like PR-3 generation fencing on the data
// plane: after a coordinator crash + recovery bumps the epoch, a zombie
// pre-crash coordinator (or a delayed command it issued) can never
// reclaim memory the recovered incarnation considers live.

// ErrStaleEpoch fences a control-plane command whose coordinator epoch
// is lower than the highest this kernel has adopted.
var ErrStaleEpoch = errors.New("kernel: command from a stale coordinator epoch")

// AdoptEpoch raises this kernel's adopted coordinator epoch; lower values
// are ignored (epochs only move forward).
func (k *Kernel) AdoptEpoch(epoch uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if epoch > k.ctrlEpoch {
		k.ctrlEpoch = epoch
	}
}

// CtrlEpoch returns the highest coordinator epoch this kernel has adopted.
func (k *Kernel) CtrlEpoch() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.ctrlEpoch
}

// DeregisterMemFenced is DeregisterMem gated on the issuing coordinator
// incarnation's epoch. A command from a stale epoch is refused with
// ErrStaleEpoch; a newer epoch is adopted first (commands are implicit
// epoch announcements, as in SWIM-style incarnation numbers).
func (k *Kernel) DeregisterMemFenced(epoch uint64, id FuncID, key Key) error {
	k.mu.Lock()
	if cur := k.ctrlEpoch; epoch < cur {
		k.mu.Unlock()
		return fmt.Errorf("%w: epoch %d < %d (id=%d)", ErrStaleEpoch, epoch, cur, id)
	} else if epoch > cur {
		k.ctrlEpoch = epoch
	}
	k.mu.Unlock()
	return k.DeregisterMem(id, key)
}

// RegListing is one live registration named by its (id, key) pair; the
// recovered coordinator reconciles its directory against these.
type RegListing struct {
	ID  FuncID
	Key Key
}

// ListRegistrations returns the live registrations sorted by (ID, Key),
// a deterministic listing for control-plane reconciliation.
func (k *Kernel) ListRegistrations() []RegListing {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]RegListing, 0, len(k.regs))
	for rk := range k.regs {
		out = append(out, RegListing{ID: rk.id, Key: rk.key})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// ExtendACL adds consumers to a registration's permission list without
// replacing it. Unlike SetACL it never widens a nil (allow-any) list into
// a restriction: extending a nil ACL is a no-op, since every consumer is
// already allowed. The data plane calls this directly during forwarding —
// the kernel stays authoritative for access control even while the
// coordinator (which journals the same extension) is down.
func (k *Kernel) ExtendACL(id FuncID, key Key, more []FuncID) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	e, ok := k.regs[regKey{id, key}]
	if !ok {
		return fmt.Errorf("%w: id=%d", ErrNotRegistered, id)
	}
	if e.allowed == nil {
		return nil
	}
	for _, c := range more {
		e.allowed[c] = struct{}{}
	}
	return nil
}
