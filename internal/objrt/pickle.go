package objrt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rmmap/internal/simtime"
	"rmmap/internal/wire"
)

// The pickle codec is what the Messaging and Storage baselines pay for:
// serialization traverses every reachable sub-object and copies payloads
// into one contiguous buffer; deserialization reconstructs the graph on the
// consumer's heap. Charges follow the paper's calibration (per-object
// transform plus per-byte copy, §2.4).
//
// Wire format (little endian):
//
//	magic "RMPK1"
//	count u64
//	count × record: tag u16 | aux u32 | n u64 | payload
//	  (pointer payloads carry record indices instead of addresses)
//
// Records are emitted in dependency (post-) order, so the root is the
// final record and shared sub-objects are emitted once, like pickle memo.
const pickleMagic = "RMPK1"

// PickleStats reports what a serialization traversed.
type PickleStats struct {
	Objects      int
	PayloadBytes int
	WireBytes    int
}

// ErrPickle wraps malformed-stream errors.
var ErrPickle = errors.New("objrt: bad pickle stream")

// Pickle serializes the graph rooted at root into a byte array, charging
// meter per sub-object and per payload byte.
func Pickle(root Obj, meter *simtime.Meter) ([]byte, PickleStats, error) {
	memo := make(map[uint64]uint64) // addr → record index
	var order []Obj

	// Iterative postorder with a visit/emit two-phase stack.
	type fr struct {
		obj      Obj
		expanded bool
	}
	stack := []fr{{obj: root}}
	inProgress := make(map[uint64]bool)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, done := memo[f.obj.Addr]; done {
			continue
		}
		if !f.expanded {
			if inProgress[f.obj.Addr] {
				continue // shared ref already queued below us
			}
			inProgress[f.obj.Addr] = true
			h, err := f.obj.header()
			if err != nil {
				return nil, PickleStats{}, err
			}
			stack = append(stack, fr{obj: f.obj, expanded: true})
			children, err := f.obj.children(h)
			if err != nil {
				return nil, PickleStats{}, err
			}
			for _, c := range children {
				if _, done := memo[c.Addr]; !done && !inProgress[c.Addr] {
					stack = append(stack, fr{obj: c})
				}
			}
			continue
		}
		memo[f.obj.Addr] = uint64(len(order))
		order = append(order, f.obj)
	}

	var st PickleStats
	out := make([]byte, 0, 1024)
	out = append(out, pickleMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(order)))

	for _, o := range order {
		h, err := o.header()
		if err != nil {
			return nil, PickleStats{}, err
		}
		psize := payloadSize(h)
		payload := make([]byte, psize)
		if err := o.rt.as.Read(o.Addr+HeaderSize, payload); err != nil {
			return nil, PickleStats{}, err
		}
		// Rewrite pointers to memo indices.
		if nptr := pointerCount(h); nptr > 0 {
			for i := 0; i < nptr; i++ {
				addr := getU64(payload[i*PtrSize:])
				idx, ok := memo[addr]
				if !ok {
					return nil, PickleStats{}, fmt.Errorf("%w: dangling pointer %#x", ErrPickle, addr)
				}
				putU64(payload[i*PtrSize:], idx)
			}
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(h.tag))
		out = binary.LittleEndian.AppendUint32(out, h.aux)
		out = binary.LittleEndian.AppendUint64(out, h.n)
		out = append(out, payload...)
		st.Objects++
		st.PayloadBytes += int(psize)
	}
	st.WireBytes = len(out)

	cm := root.rt.cm
	meter.Charge(simtime.CatSerialize,
		simtime.Scale(cm.SerializePerObject, st.Objects)+
			simtime.Bytes(st.PayloadBytes, cm.SerializePerByte))
	return out, st, nil
}

// pointerCount returns how many leading 8-byte pointers a payload holds.
func pointerCount(h header) int {
	switch h.tag {
	case TList, TTuple, TForest:
		return int(h.n)
	case TDict, TDataFrame:
		return int(2 * h.n)
	default:
		return 0
	}
}

// Unpickle reconstructs a pickled graph onto rt's heap, charging meter per
// object and per payload byte, and returns the root object.
func Unpickle(rt *Runtime, data []byte, meter *simtime.Meter) (Obj, error) {
	rd := wire.NewReader(data)
	if string(rd.Bytes(len(pickleMagic))) != pickleMagic {
		return Obj{}, fmt.Errorf("%w: missing magic", ErrPickle)
	}
	// Every record is at least its 14-byte header, so the stream bounds
	// the count a well-formed header can claim.
	count := rd.Count(rd.U64(), 14)
	if rd.Err() != nil {
		return Obj{}, fmt.Errorf("%w: record count beyond the stream", ErrPickle)
	}
	addrs := make([]uint64, 0, count)
	var objects int
	var payloadBytes int
	for r := 0; r < count; r++ {
		h := header{tag: Tag(rd.U16()), aux: rd.U32(), n: rd.U64()}
		if rd.Err() != nil {
			return Obj{}, fmt.Errorf("%w: truncated record %d", ErrPickle, r)
		}
		if h.tag == TInvalid || h.tag >= numTags {
			return Obj{}, fmt.Errorf("%w: tag %d", ErrPickle, h.tag)
		}
		size, ok := payloadSizeWithin(h, uint64(rd.Len()))
		if !ok {
			return Obj{}, fmt.Errorf("%w: truncated payload %d", ErrPickle, r)
		}
		psize := int(size)
		payload := make([]byte, psize)
		copy(payload, rd.Bytes(psize))
		if nptr := pointerCount(h); nptr > 0 {
			for i := 0; i < nptr; i++ {
				idx := getU64(payload[i*PtrSize:])
				if idx >= uint64(len(addrs)) {
					return Obj{}, fmt.Errorf("%w: forward reference %d in record %d", ErrPickle, idx, r)
				}
				putU64(payload[i*PtrSize:], addrs[idx])
			}
		}
		o, err := rt.alloc(h)
		if err != nil {
			return Obj{}, err
		}
		if err := rt.as.Write(o.Addr+HeaderSize, payload); err != nil {
			return Obj{}, err
		}
		addrs = append(addrs, o.Addr)
		objects++
		payloadBytes += psize
	}
	if len(addrs) == 0 {
		return Obj{}, fmt.Errorf("%w: empty stream", ErrPickle)
	}
	cm := rt.cm
	meter.Charge(simtime.CatDeserialize,
		simtime.Scale(cm.DeserializePerObject, objects)+
			simtime.Bytes(payloadBytes, cm.DeserializePerByte))
	return Obj{rt: rt, Addr: addrs[len(addrs)-1]}, nil
}
