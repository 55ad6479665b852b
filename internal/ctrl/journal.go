package ctrl

import (
	"encoding/binary"
	"fmt"

	"rmmap/internal/wire"
)

// Write-ahead journal codec.
//
// The coordinator's durable state is an append-only log of fixed-framed
// records plus periodic snapshots. Framing per record:
//
//	[u32 body length][body][u32 FNV-32a(body)]
//
// all little-endian, body[0] being the record kind. The framing gives the
// two crash/corruption behaviours recovery needs:
//
//   - A truncated tail (the length prefix, body, or checksum cut short) is
//     a clean crash point: DecodeRecords returns every complete record and
//     the byte offset of the truncation, no error. A coordinator that died
//     mid-append recovers to the last complete record.
//   - A corrupt length prefix (zero or beyond MaxRecordLen) or a checksum
//     mismatch is rejected with a *CorruptError naming the byte position —
//     storage rot, not a crash, and must not be silently skipped.

// RecordKind tags one journal record.
type RecordKind uint8

// Journal record kinds.
const (
	// RecEpoch notes an epoch adoption (initial epoch and every recovery
	// bump).
	RecEpoch RecordKind = iota + 1
	// RecSlot is one issued address-plan slot (function, instance, range).
	RecSlot
	// RecPlace is one pod-placement table entry.
	RecPlace
	// RecRegister is a registration-directory insert.
	RecRegister
	// RecAddRef notes an additional payload reference (forwarding).
	RecAddRef
	// RecACL extends a registration's allowed consumer set.
	RecACL
	// RecRelease drops one payload reference.
	RecRelease
	// RecReclaim notes a reclamation order (deregister_mem) issued.
	RecReclaim
)

func (k RecordKind) String() string {
	switch k {
	case RecEpoch:
		return "epoch"
	case RecSlot:
		return "slot"
	case RecPlace:
		return "place"
	case RecRegister:
		return "register"
	case RecAddRef:
		return "addref"
	case RecACL:
		return "acl"
	case RecRelease:
		return "release"
	case RecReclaim:
		return "reclaim"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MaxRecordLen bounds one record body; a length prefix beyond it is
// corruption by definition (it also stops a fuzzer-supplied length from
// driving a huge allocation).
const MaxRecordLen = 1 << 20

// RegRef identifies one registration: the (job id, key) pair of
// register_mem.
type RegRef struct {
	ID  uint64
	Key uint64
}

// PlanSlot is one issued address-plan range.
type PlanSlot struct {
	Fn         string
	Inst       int
	Start, End uint64
}

// Record is the decoded form of one journal entry; which fields are
// meaningful depends on Kind.
type Record struct {
	Kind    RecordKind
	Epoch   uint64   // RecEpoch
	Slot    PlanSlot // RecSlot
	Pod     int      // RecPlace
	Machine int      // RecPlace, RecRegister, RecReclaim
	Ref     RegRef   // RecRegister..RecReclaim
	Allowed []uint64 // RecRegister, RecACL
}

// CorruptError reports journal or snapshot corruption with the byte
// position of the bad frame.
type CorruptError struct {
	Pos    int
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("ctrl: corrupt journal at byte %d: %s", e.Pos, e.Reason)
}

func fnv32a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// encodeBody serializes a record body (kind byte + kind-specific fields).
func encodeBody(r Record) ([]byte, error) {
	b := []byte{byte(r.Kind)}
	switch r.Kind {
	case RecEpoch:
		b = binary.LittleEndian.AppendUint64(b, r.Epoch)
	case RecSlot:
		if len(r.Slot.Fn) > 0xffff {
			return nil, fmt.Errorf("ctrl: slot function name %d bytes", len(r.Slot.Fn))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Slot.Fn)))
		b = append(b, r.Slot.Fn...)
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Slot.Inst))
		b = binary.LittleEndian.AppendUint64(b, r.Slot.Start)
		b = binary.LittleEndian.AppendUint64(b, r.Slot.End)
	case RecPlace:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Pod))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Machine))
	case RecRegister:
		b = binary.LittleEndian.AppendUint64(b, r.Ref.ID)
		b = binary.LittleEndian.AppendUint64(b, r.Ref.Key)
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Machine))
		if len(r.Allowed) > 0xffff {
			return nil, fmt.Errorf("ctrl: %d allowed consumers", len(r.Allowed))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Allowed)))
		for _, a := range r.Allowed {
			b = binary.LittleEndian.AppendUint64(b, a)
		}
	case RecACL:
		b = binary.LittleEndian.AppendUint64(b, r.Ref.ID)
		b = binary.LittleEndian.AppendUint64(b, r.Ref.Key)
		if len(r.Allowed) > 0xffff {
			return nil, fmt.Errorf("ctrl: %d allowed consumers", len(r.Allowed))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Allowed)))
		for _, a := range r.Allowed {
			b = binary.LittleEndian.AppendUint64(b, a)
		}
	case RecAddRef, RecRelease:
		b = binary.LittleEndian.AppendUint64(b, r.Ref.ID)
		b = binary.LittleEndian.AppendUint64(b, r.Ref.Key)
	case RecReclaim:
		b = binary.LittleEndian.AppendUint64(b, r.Ref.ID)
		b = binary.LittleEndian.AppendUint64(b, r.Ref.Key)
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Machine))
	default:
		return nil, fmt.Errorf("ctrl: unknown record kind %d", r.Kind)
	}
	return b, nil
}

// EncodeRecord frames one record for the journal.
func EncodeRecord(r Record) ([]byte, error) {
	body, err := encodeBody(r)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(body)+8)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, fnv32a(body))
	return out, nil
}

// decodeBody parses one record body.
func decodeBody(body []byte) (Record, error) {
	r := wire.NewReader(body)
	rec := Record{Kind: RecordKind(r.U8())}
	switch rec.Kind {
	case RecEpoch:
		rec.Epoch = r.U64()
	case RecSlot:
		rec.Slot.Fn = string(r.Bytes(int(r.U16())))
		rec.Slot.Inst = int(int32(r.U32()))
		rec.Slot.Start = r.U64()
		rec.Slot.End = r.U64()
	case RecPlace:
		rec.Pod = int(int32(r.U32()))
		rec.Machine = int(int32(r.U32()))
	case RecRegister:
		rec.Ref.ID = r.U64()
		rec.Ref.Key = r.U64()
		rec.Machine = int(int32(r.U32()))
		rec.Allowed = readAllowed(&r)
	case RecACL:
		rec.Ref.ID = r.U64()
		rec.Ref.Key = r.U64()
		rec.Allowed = readAllowed(&r)
	case RecAddRef, RecRelease:
		rec.Ref.ID = r.U64()
		rec.Ref.Key = r.U64()
	case RecReclaim:
		rec.Ref.ID = r.U64()
		rec.Ref.Key = r.U64()
		rec.Machine = int(int32(r.U32()))
	default:
		return Record{}, fmt.Errorf("unknown record kind %d", uint8(rec.Kind))
	}
	if !r.Done() {
		return Record{}, fmt.Errorf("record kind %v: body length %d malformed", rec.Kind, len(body))
	}
	return rec, nil
}

// readAllowed reads a u16-counted list of consumer ids.
func readAllowed(r *wire.Reader) []uint64 {
	out := make([]uint64, r.Count(uint64(r.U16()), 8))
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// DecodeRecords parses a journal byte stream. It returns the complete
// records, the clean byte offset up to which the stream parsed (a crash
// point: everything before it is durable), and a *CorruptError if a frame
// is damaged rather than merely truncated. On error the returned records
// and offset still describe the valid prefix.
func DecodeRecords(data []byte) ([]Record, int, error) {
	var recs []Record
	r := wire.NewReader(data)
	for {
		pos := r.Pos()
		if r.Len() < 4 {
			return recs, pos, nil // truncated length prefix: clean crash point
		}
		n := int(r.U32())
		if n == 0 || n > MaxRecordLen {
			return recs, pos, &CorruptError{Pos: pos, Reason: fmt.Sprintf("length prefix %d outside (0, %d]", n, MaxRecordLen)}
		}
		if r.Len() < n+4 {
			return recs, pos, nil // truncated body or checksum: clean crash point
		}
		body := r.Bytes(n)
		if got, crc := fnv32a(body), r.U32(); got != crc {
			return recs, pos, &CorruptError{Pos: pos, Reason: fmt.Sprintf("checksum %08x != %08x", got, crc)}
		}
		rec, err := decodeBody(body)
		if err != nil {
			return recs, pos, &CorruptError{Pos: pos, Reason: err.Error()}
		}
		recs = append(recs, rec)
	}
}
