package wire

import (
	"encoding/binary"
	"errors"
)

// ErrShort reports a read past the end of the input, or a count larger
// than the remaining input can hold.
var ErrShort = errors.New("wire: input too short")

// Reader is a bounds-checked little-endian cursor over a byte slice.
type Reader struct {
	b   []byte
	pos int
	err error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// take advances past n bytes and returns them, or fails the Reader.
func (r *Reader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b)-r.pos {
		r.err = ErrShort
		return nil
	}
	v := r.b[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return v
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Bytes returns the next n bytes, aliasing the input (nil after a
// failure). A negative n fails the Reader.
func (r *Reader) Bytes(n int) []byte { return r.take(n) }

// Count bounds n, a count read from the input, by the bytes that remain:
// each of its elements takes at least minElem (> 0) bytes, so a count
// larger than Len()/minElem cannot be well formed. Count returns n as an
// int, or fails the Reader and returns 0. It reads nothing.
func (r *Reader) Count(n uint64, minElem int) int {
	if r.err != nil || n > uint64((len(r.b)-r.pos)/minElem) {
		r.err = ErrShort
		return 0
	}
	return int(n)
}

// Pos returns the offset of the next unread byte; it does not move past a
// failed read.
func (r *Reader) Pos() int { return r.pos }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.pos }

// Err returns the sticky error of the first failed read, or nil.
func (r *Reader) Err() error { return r.err }

// Done reports whether every read succeeded and consumed the input
// exactly, with no trailing bytes.
func (r *Reader) Done() bool { return r.err == nil && r.pos == len(r.b) }
