package ctrl

// The journal decoder as it was before it read through wire.Reader, kept
// verbatim as the differential oracle for FuzzJournal.

import (
	"encoding/binary"
	"fmt"
)

// oldBodyReader is a bounds-checked little-endian cursor over one record body.
type oldBodyReader struct {
	b   []byte
	pos int
	err bool
}

func (r *oldBodyReader) u8() uint8 {
	if r.err || r.pos+1 > len(r.b) {
		r.err = true
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *oldBodyReader) u16() uint16 {
	if r.err || r.pos+2 > len(r.b) {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.pos:])
	r.pos += 2
	return v
}

func (r *oldBodyReader) u32() uint32 {
	if r.err || r.pos+4 > len(r.b) {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v
}

func (r *oldBodyReader) u64() uint64 {
	if r.err || r.pos+8 > len(r.b) {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v
}

func (r *oldBodyReader) str(n int) string {
	if r.err || n < 0 || r.pos+n > len(r.b) {
		r.err = true
		return ""
	}
	s := string(r.b[r.pos : r.pos+n])
	r.pos += n
	return s
}

func (r *oldBodyReader) u64s(n int) []uint64 {
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
func (r *oldBodyReader) done() bool { return !r.err && r.pos == len(r.b) }

// oldDecodeBody parses one record body.
func oldDecodeBody(body []byte) (Record, error) {
	r := &oldBodyReader{b: body}
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

// oldDecodeRecords parses a journal byte stream. It returns the complete
// records, the clean byte offset up to which the stream parsed (a crash
// point: everything before it is durable), and a *CorruptError if a frame
// is damaged rather than merely truncated. On error the returned records
// and offset still describe the valid prefix.
func oldDecodeRecords(data []byte) ([]Record, int, error) {
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
		rec, err := oldDecodeBody(body)
		if err != nil {
			return recs, pos, &CorruptError{Pos: pos, Reason: err.Error()}
		}
		recs = append(recs, rec)
		pos += 4 + n + 4
	}
}
