package objrt

// Unpickle as it was before its count and record headers were read
// through wire.Reader, kept verbatim as the differential oracle for
// FuzzUnpickle.

import (
	"fmt"

	"rmmap/internal/simtime"
)

// oldUnpickle reconstructs a pickled graph onto rt's heap, charging meter per
// object and per payload byte, and returns the root object.
func oldUnpickle(rt *Runtime, data []byte, meter *simtime.Meter) (Obj, error) {
	if len(data) < len(pickleMagic)+8 || string(data[:len(pickleMagic)]) != pickleMagic {
		return Obj{}, fmt.Errorf("%w: missing magic", ErrPickle)
	}
	p := len(pickleMagic)
	count := getU64(data[p:])
	p += 8

	// Every record is at least 14 bytes, so the stream bounds the count
	// a well-formed header can claim; never trust it further than that.
	addrs := make([]uint64, 0, min(count, uint64(len(data)-p)/14))
	var objects int
	var payloadBytes int
	for r := uint64(0); r < count; r++ {
		if p+14 > len(data) {
			return Obj{}, fmt.Errorf("%w: truncated record %d", ErrPickle, r)
		}
		h := header{
			tag: Tag(uint16(data[p]) | uint16(data[p+1])<<8),
			aux: uint32(data[p+2]) | uint32(data[p+3])<<8 | uint32(data[p+4])<<16 | uint32(data[p+5])<<24,
			n:   getU64(data[p+6:]),
		}
		p += 14
		if h.tag == TInvalid || h.tag >= numTags {
			return Obj{}, fmt.Errorf("%w: tag %d", ErrPickle, h.tag)
		}
		size, ok := payloadSizeWithin(h, uint64(len(data)-p))
		if !ok {
			return Obj{}, fmt.Errorf("%w: truncated payload %d", ErrPickle, r)
		}
		psize := int(size)
		payload := make([]byte, psize)
		copy(payload, data[p:p+psize])
		p += psize
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
