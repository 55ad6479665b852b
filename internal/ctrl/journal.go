package ctrl

import (
	"encoding/binary"
	"fmt"
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

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// encodeBody serializes a record body (kind byte + kind-specific fields).
func encodeBody(r Record) ([]byte, error) {
	b := []byte{byte(r.Kind)}
	switch r.Kind {
	case RecEpoch:
		b = appendU64(b, r.Epoch)
	case RecSlot:
		if len(r.Slot.Fn) > 0xffff {
			return nil, fmt.Errorf("ctrl: slot function name %d bytes", len(r.Slot.Fn))
		}
		b = appendU16(b, uint16(len(r.Slot.Fn)))
		b = append(b, r.Slot.Fn...)
		b = appendU32(b, uint32(r.Slot.Inst))
		b = appendU64(b, r.Slot.Start)
		b = appendU64(b, r.Slot.End)
	case RecPlace:
		b = appendU32(b, uint32(r.Pod))
		b = appendU32(b, uint32(r.Machine))
	case RecRegister:
		b = appendU64(b, r.Ref.ID)
		b = appendU64(b, r.Ref.Key)
		b = appendU32(b, uint32(r.Machine))
		if len(r.Allowed) > 0xffff {
			return nil, fmt.Errorf("ctrl: %d allowed consumers", len(r.Allowed))
		}
		b = appendU16(b, uint16(len(r.Allowed)))
		for _, a := range r.Allowed {
			b = appendU64(b, a)
		}
	case RecACL:
		b = appendU64(b, r.Ref.ID)
		b = appendU64(b, r.Ref.Key)
		if len(r.Allowed) > 0xffff {
			return nil, fmt.Errorf("ctrl: %d allowed consumers", len(r.Allowed))
		}
		b = appendU16(b, uint16(len(r.Allowed)))
		for _, a := range r.Allowed {
			b = appendU64(b, a)
		}
	case RecAddRef, RecRelease:
		b = appendU64(b, r.Ref.ID)
		b = appendU64(b, r.Ref.Key)
	case RecReclaim:
		b = appendU64(b, r.Ref.ID)
		b = appendU64(b, r.Ref.Key)
		b = appendU32(b, uint32(r.Machine))
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
	out = appendU32(out, uint32(len(body)))
	out = append(out, body...)
	out = appendU32(out, fnv32a(body))
	return out, nil
}

// bodyReader is a bounds-checked little-endian cursor over one record body.
type bodyReader struct {
	b   []byte
	pos int
	err bool
}

func (r *bodyReader) u8() uint8 {
	if r.err || r.pos+1 > len(r.b) {
		r.err = true
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *bodyReader) u16() uint16 {
	if r.err || r.pos+2 > len(r.b) {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.pos:])
	r.pos += 2
	return v
}

func (r *bodyReader) u32() uint32 {
	if r.err || r.pos+4 > len(r.b) {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v
}

func (r *bodyReader) u64() uint64 {
	if r.err || r.pos+8 > len(r.b) {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v
}

func (r *bodyReader) str(n int) string {
	if r.err || n < 0 || r.pos+n > len(r.b) {
		r.err = true
		return ""
	}
	s := string(r.b[r.pos : r.pos+n])
	r.pos += n
	return s
}

func (r *bodyReader) u64s(n int) []uint64 {
	if r.err || n < 0 || r.pos+8*n > len(r.b) {
		r.err = true
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.u64()
	}
	return out
}

// done reports whether the body was consumed exactly, with no read errors.
func (r *bodyReader) done() bool { return !r.err && r.pos == len(r.b) }

// decodeBody parses one record body.
func decodeBody(body []byte) (Record, error) {
	r := &bodyReader{b: body}
	rec := Record{Kind: RecordKind(r.u8())}
	switch rec.Kind {
	case RecEpoch:
		rec.Epoch = r.u64()
	case RecSlot:
		n := int(r.u16())
		rec.Slot.Fn = r.str(n)
		rec.Slot.Inst = int(int32(r.u32()))
		rec.Slot.Start = r.u64()
		rec.Slot.End = r.u64()
	case RecPlace:
		rec.Pod = int(int32(r.u32()))
		rec.Machine = int(int32(r.u32()))
	case RecRegister:
		rec.Ref.ID = r.u64()
		rec.Ref.Key = r.u64()
		rec.Machine = int(int32(r.u32()))
		rec.Allowed = r.u64s(int(r.u16()))
	case RecACL:
		rec.Ref.ID = r.u64()
		rec.Ref.Key = r.u64()
		rec.Allowed = r.u64s(int(r.u16()))
	case RecAddRef, RecRelease:
		rec.Ref.ID = r.u64()
		rec.Ref.Key = r.u64()
	case RecReclaim:
		rec.Ref.ID = r.u64()
		rec.Ref.Key = r.u64()
		rec.Machine = int(int32(r.u32()))
	default:
		return Record{}, fmt.Errorf("unknown record kind %d", uint8(rec.Kind))
	}
	if !r.done() {
		return Record{}, fmt.Errorf("record kind %v: body length %d malformed", rec.Kind, len(body))
	}
	return rec, nil
}

// DecodeRecords parses a journal byte stream. It returns the complete
// records, the clean byte offset up to which the stream parsed (a crash
// point: everything before it is durable), and a *CorruptError if a frame
// is damaged rather than merely truncated. On error the returned records
// and offset still describe the valid prefix.
func DecodeRecords(data []byte) ([]Record, int, error) {
	var recs []Record
	pos := 0
	for {
		if len(data)-pos < 4 {
			return recs, pos, nil // truncated length prefix: clean crash point
		}
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		if n == 0 || n > MaxRecordLen {
			return recs, pos, &CorruptError{Pos: pos, Reason: fmt.Sprintf("length prefix %d outside (0, %d]", n, MaxRecordLen)}
		}
		if len(data)-pos < 4+n+4 {
			return recs, pos, nil // truncated body or checksum: clean crash point
		}
		body := data[pos+4 : pos+4+n]
		crc := binary.LittleEndian.Uint32(data[pos+4+n:])
		if got := fnv32a(body); got != crc {
			return recs, pos, &CorruptError{Pos: pos, Reason: fmt.Sprintf("checksum %08x != %08x", got, crc)}
		}
		rec, err := decodeBody(body)
		if err != nil {
			return recs, pos, &CorruptError{Pos: pos, Reason: err.Error()}
		}
		recs = append(recs, rec)
		pos += 4 + n + 4
	}
}
