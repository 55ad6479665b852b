package objrt

import (
	"errors"
	"fmt"
	"math/bits"
)

// Tag identifies an object's type.
type Tag uint16

// Object types. The set mirrors the Python types of Fig 11a plus the tree
// models used by the ML workflows.
const (
	TInvalid Tag = iota
	TInt
	TFloat
	TStr
	TBytes
	TList
	TTuple
	TDict
	TNDArray
	TDataFrame
	TImage
	TTree
	TForest
	numTags
)

var tagNames = [...]string{
	TInvalid:   "invalid",
	TInt:       "int",
	TFloat:     "float",
	TStr:       "str",
	TBytes:     "bytes",
	TList:      "list",
	TTuple:     "tuple",
	TDict:      "dict",
	TNDArray:   "ndarray",
	TDataFrame: "dataframe",
	TImage:     "image",
	TTree:      "tree",
	TForest:    "forest",
}

func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return fmt.Sprintf("tag(%d)", uint16(t))
}

// Object header layout (16 bytes, little endian):
//
//	[0:2]  magic 0x524D ("RM")
//	[2:4]  tag
//	[4:8]  aux (ndim for ndarray, klass ID in Java mode, width<<16|height
//	       for images, row count for dataframes)
//	[8:16] n (element count or payload byte length, per type)
//
// The payload starts at addr+HeaderSize.
const (
	HeaderSize  = 16
	headerMagic = uint16(0x524D)
)

// PtrSize is the size of an in-heap pointer.
const PtrSize = 8

// Errors.
var (
	ErrBadObject  = errors.New("objrt: bad object header")
	ErrWrongType  = errors.New("objrt: wrong object type")
	ErrHeapFull   = errors.New("objrt: heap exhausted")
	ErrNotLocal   = errors.New("objrt: address not on local heap")
	ErrKlass      = errors.New("objrt: type metadata (klass) mismatch")
	ErrNoIterator = errors.New("objrt: type is not traversable (no iterator)")
)

type header struct {
	tag Tag
	aux uint32
	n   uint64
}

func encodeHeader(h header) [HeaderSize]byte {
	var b [HeaderSize]byte
	b[0] = byte(headerMagic & 0xff)
	b[1] = byte(headerMagic >> 8)
	b[2] = byte(h.tag)
	b[3] = byte(h.tag >> 8)
	b[4] = byte(h.aux)
	b[5] = byte(h.aux >> 8)
	b[6] = byte(h.aux >> 16)
	b[7] = byte(h.aux >> 24)
	for i := 0; i < 8; i++ {
		b[8+i] = byte(h.n >> (8 * i))
	}
	return b
}

func decodeHeader(b []byte) (header, error) {
	if len(b) < HeaderSize {
		return header{}, ErrBadObject
	}
	magic := uint16(b[0]) | uint16(b[1])<<8
	if magic != headerMagic {
		return header{}, fmt.Errorf("%w: magic %#x", ErrBadObject, magic)
	}
	h := header{
		tag: Tag(uint16(b[2]) | uint16(b[3])<<8),
		aux: uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24,
	}
	for i := 0; i < 8; i++ {
		h.n |= uint64(b[8+i]) << (8 * i)
	}
	if h.tag == TInvalid || h.tag >= numTags {
		return header{}, fmt.Errorf("%w: tag %d", ErrBadObject, h.tag)
	}
	return h, nil
}

// payloadDims returns a header's payload length as n·unit + fixed bytes.
func payloadDims(h header) (unit, fixed uint64) {
	switch h.tag {
	case TInt, TFloat:
		return 0, 8
	case TStr, TBytes, TImage:
		return 1, 0
	case TList, TTuple, TForest:
		return PtrSize, 0
	case TDict, TDataFrame:
		return 2 * PtrSize, 0
	case TNDArray:
		return 8, uint64(h.aux) * 8 // shape dims then float64 data
	case TTree:
		return treeNodeSize, 0
	default:
		return 0, 0
	}
}

// payloadSize returns the payload byte length for a decoded header.
func payloadSize(h header) uint64 {
	unit, fixed := payloadDims(h)
	return h.n*unit + fixed
}

// payloadSizeWithin is payloadSize for an untrusted header: ok is false
// when the length exceeds limit, including when n·unit + fixed overflows.
func payloadSizeWithin(h header, limit uint64) (size uint64, ok bool) {
	unit, fixed := payloadDims(h)
	hi, lo := bits.Mul64(h.n, unit)
	size, carry := bits.Add64(lo, fixed, 0)
	return size, hi == 0 && carry == 0 && size <= limit
}

// TreeNode is one node of a decision tree, stored inline (40 bytes):
// feature i64, threshold f64, left i64, right i64, value f64. Leaves have
// Feature == -1.
type TreeNode struct {
	Feature     int64
	Threshold   float64
	Left, Right int64
	Value       float64
}

const treeNodeSize = 40

// objectSize returns header+payload size.
func objectSize(h header) uint64 { return HeaderSize + payloadSize(h) }
