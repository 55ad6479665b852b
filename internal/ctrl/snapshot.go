package ctrl

import (
	"encoding/binary"
	"fmt"
	"sort"

	"rmmap/internal/wire"
)

// Snapshot codec. A snapshot is a full serialization of coordinator State
// in canonical order (slots in issuance order, registrations sorted by
// (ID, Key), placements sorted by pod), so the same State always encodes
// to the same bytes regardless of map iteration order. Layout:
//
//	"RMCSNAP1" | epoch u64
//	| nslots u32 | nslots × (u16 fnlen | fn | u32 inst | u64 start | u64 end)
//	| nregs  u32 | nregs  × (u64 id | u64 key | u32 machine | u32 refs
//	                         | u16 nallowed | nallowed × u64)
//	| nplaces u32 | nplaces × (u32 pod | u32 machine)
//
// A save file (SaveFile / LoadState) is snapshot-then-log:
//
//	"RMCSAVE1" | u32 snapLen | snapshot | u32 logLen | journal records

const (
	snapMagic = "RMCSNAP1"
	saveMagic = "RMCSAVE1"
)

// Registration is one registration-directory entry.
type Registration struct {
	Machine int
	Refs    int
	Allowed []uint64
}

// State is the coordinator's materialized view: everything the control
// plane is authoritative for between reconciliations.
type State struct {
	Epoch  uint64
	Slots  []PlanSlot // issuance order
	Regs   map[RegRef]*Registration
	Places map[int]int // pod -> machine

	slotIndex map[slotKey]int
}

type slotKey struct {
	fn   string
	inst int
}

// NewState returns an empty coordinator state.
func NewState() *State {
	return &State{
		Regs:      make(map[RegRef]*Registration),
		Places:    make(map[int]int),
		slotIndex: make(map[slotKey]int),
	}
}

// apply folds one journal record into the state. Replay of the full
// journal from an empty state reproduces the pre-crash view exactly.
func (s *State) apply(r Record) {
	switch r.Kind {
	case RecEpoch:
		if r.Epoch > s.Epoch {
			s.Epoch = r.Epoch
		}
	case RecSlot:
		k := slotKey{r.Slot.Fn, r.Slot.Inst}
		if i, ok := s.slotIndex[k]; ok {
			s.Slots[i] = r.Slot
			return
		}
		s.slotIndex[k] = len(s.Slots)
		s.Slots = append(s.Slots, r.Slot)
	case RecPlace:
		s.Places[r.Pod] = r.Machine
	case RecRegister:
		s.Regs[r.Ref] = &Registration{
			Machine: r.Machine,
			Refs:    1,
			Allowed: append([]uint64(nil), r.Allowed...),
		}
	case RecAddRef:
		if reg, ok := s.Regs[r.Ref]; ok {
			reg.Refs++
		}
	case RecACL:
		if reg, ok := s.Regs[r.Ref]; ok {
			reg.Allowed = append(reg.Allowed, r.Allowed...)
		}
	case RecRelease:
		if reg, ok := s.Regs[r.Ref]; ok {
			reg.Refs--
			if reg.Refs <= 0 {
				delete(s.Regs, r.Ref)
			}
		}
	case RecReclaim:
		// Audit record only; the release that reached zero already removed
		// the directory entry.
	}
}

// EncodeSnapshot serializes the state in canonical order.
func EncodeSnapshot(s *State) []byte {
	b := []byte(snapMagic)
	b = binary.LittleEndian.AppendUint64(b, s.Epoch)

	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Slots)))
	for _, sl := range s.Slots {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(sl.Fn)))
		b = append(b, sl.Fn...)
		b = binary.LittleEndian.AppendUint32(b, uint32(sl.Inst))
		b = binary.LittleEndian.AppendUint64(b, sl.Start)
		b = binary.LittleEndian.AppendUint64(b, sl.End)
	}

	refs := make([]RegRef, 0, len(s.Regs))
	for ref := range s.Regs {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].ID != refs[j].ID {
			return refs[i].ID < refs[j].ID
		}
		return refs[i].Key < refs[j].Key
	})
	b = binary.LittleEndian.AppendUint32(b, uint32(len(refs)))
	for _, ref := range refs {
		reg := s.Regs[ref]
		b = binary.LittleEndian.AppendUint64(b, ref.ID)
		b = binary.LittleEndian.AppendUint64(b, ref.Key)
		b = binary.LittleEndian.AppendUint32(b, uint32(reg.Machine))
		b = binary.LittleEndian.AppendUint32(b, uint32(reg.Refs))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(reg.Allowed)))
		for _, a := range reg.Allowed {
			b = binary.LittleEndian.AppendUint64(b, a)
		}
	}

	pods := make([]int, 0, len(s.Places))
	for p := range s.Places {
		pods = append(pods, p)
	}
	sort.Ints(pods)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pods)))
	for _, p := range pods {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Places[p]))
	}
	return b
}

// DecodeSnapshot parses a snapshot back into a State.
func DecodeSnapshot(data []byte) (*State, error) {
	r := wire.NewReader(data)
	if string(r.Bytes(len(snapMagic))) != snapMagic {
		return nil, &CorruptError{Pos: 0, Reason: "bad snapshot magic"}
	}
	s := NewState()
	s.Epoch = r.U64()

	nslots := int(r.U32())
	for i := 0; i < nslots && r.Err() == nil; i++ {
		var sl PlanSlot
		sl.Fn = string(r.Bytes(int(r.U16())))
		sl.Inst = int(int32(r.U32()))
		sl.Start = r.U64()
		sl.End = r.U64()
		if r.Err() != nil {
			break
		}
		s.slotIndex[slotKey{sl.Fn, sl.Inst}] = len(s.Slots)
		s.Slots = append(s.Slots, sl)
	}

	nregs := int(r.U32())
	for i := 0; i < nregs && r.Err() == nil; i++ {
		var ref RegRef
		ref.ID = r.U64()
		ref.Key = r.U64()
		reg := &Registration{}
		reg.Machine = int(int32(r.U32()))
		reg.Refs = int(int32(r.U32()))
		reg.Allowed = readAllowed(&r)
		if r.Err() != nil {
			break
		}
		s.Regs[ref] = reg
	}

	nplaces := int(r.U32())
	for i := 0; i < nplaces && r.Err() == nil; i++ {
		pod := int(int32(r.U32()))
		m := int(int32(r.U32()))
		if r.Err() != nil {
			break
		}
		s.Places[pod] = m
	}

	if !r.Done() {
		return nil, &CorruptError{Pos: r.Pos(), Reason: "snapshot truncated or trailing garbage"}
	}
	return s, nil
}

// EncodeSave frames a snapshot and journal tail into one save blob.
func EncodeSave(snap, log []byte) []byte {
	out := make([]byte, 0, len(saveMagic)+8+len(snap)+len(log))
	out = append(out, saveMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(snap)))
	out = append(out, snap...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(log)))
	out = append(out, log...)
	return out
}

// DecodeSave splits a save blob into its snapshot and journal sections.
func DecodeSave(data []byte) (snap, log []byte, err error) {
	r := wire.NewReader(data)
	if string(r.Bytes(len(saveMagic))) != saveMagic {
		return nil, nil, &CorruptError{Pos: 0, Reason: "bad save magic"}
	}
	if snap = r.Bytes(int(r.U32())); r.Err() != nil {
		return nil, nil, &CorruptError{Pos: r.Pos(), Reason: "snapshot section truncated"}
	}
	if log = r.Bytes(int(r.U32())); r.Err() != nil {
		return nil, nil, &CorruptError{Pos: r.Pos(), Reason: "journal section truncated"}
	}
	if !r.Done() {
		return nil, nil, &CorruptError{Pos: r.Pos(), Reason: fmt.Sprintf("%d trailing bytes", r.Len())}
	}
	return snap, log, nil
}

// LoadState rebuilds a State from a save blob: decode the snapshot, then
// replay the journal tail over it. Returns the number of journal records
// replayed. A truncated journal tail (mid-append crash) is recovered to
// the last complete record; corruption is surfaced as *CorruptError.
func LoadState(data []byte) (*State, int, error) {
	snap, log, err := DecodeSave(data)
	if err != nil {
		return nil, 0, err
	}
	var s *State
	if len(snap) == 0 {
		s = NewState()
	} else {
		s, err = DecodeSnapshot(snap)
		if err != nil {
			return nil, 0, err
		}
	}
	recs, _, err := DecodeRecords(log)
	for _, rec := range recs {
		s.apply(rec)
	}
	if err != nil {
		return s, len(recs), err
	}
	return s, len(recs), nil
}
