package wire

import (
	"errors"
	"math"
	"testing"
)

func TestReaderFields(t *testing.T) {
	b := []byte{1, 2, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 'h', 'i'}
	r := NewReader(b)
	if r.U8() != 1 || r.U16() != 2 || r.U32() != 3 || r.U64() != 4 {
		t.Fatal("fixed-width fields misread")
	}
	if r.Len() != 2 || r.Pos() != 15 {
		t.Fatalf("Len %d Pos %d, want 2 and 15", r.Len(), r.Pos())
	}
	if got := string(r.Bytes(2)); got != "hi" {
		t.Fatalf("Bytes = %q", got)
	}
	if !r.Done() || r.Err() != nil {
		t.Fatalf("Done %v Err %v at the end of the input", r.Done(), r.Err())
	}
}

// TestReaderStickyError: the first short read fails the Reader for good.
// Later reads return zero even where bytes remain, and the position stays
// at the failed read.
func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{7, 8, 9})
	r.U8()
	if r.U32() != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("short U32: err %v", r.Err())
	}
	if r.U8() != 0 || r.U16() != 0 || r.U64() != 0 || r.Bytes(1) != nil {
		t.Fatal("read after failure returned data")
	}
	if r.Pos() != 1 || r.Done() {
		t.Fatalf("Pos %d Done %v after failure, want 1 and false", r.Pos(), r.Done())
	}
	if r := NewReader([]byte{1}); r.Bytes(-1) != nil || r.Err() == nil {
		t.Fatal("negative Bytes length accepted")
	}
}

// TestReaderCount: Count accepts exactly the counts whose minimal
// encoding fits the remaining bytes, including counts near 2^64 whose
// byte size overflows.
func TestReaderCount(t *testing.T) {
	for _, tc := range []struct {
		n       uint64
		minElem int
		ok      bool
	}{
		{0, 8, true},
		{2, 8, true}, // 16 bytes remain
		{3, 8, false},
		{16, 1, true},
		{17, 1, false},
		{math.MaxUint64, 1, false},
		{1 << 61, 8, false}, // 8·n wraps to 0
	} {
		r := NewReader(make([]byte, 16))
		got := r.Count(tc.n, tc.minElem)
		if ok := r.Err() == nil; ok != tc.ok || (ok && got != int(tc.n)) || (!ok && got != 0) {
			t.Errorf("Count(%d, %d) = %d, err %v; want ok=%v", tc.n, tc.minElem, got, r.Err(), tc.ok)
		}
		if r.Pos() != 0 {
			t.Errorf("Count(%d, %d) moved the cursor", tc.n, tc.minElem)
		}
	}
}

// TestReaderDone: Done is false while bytes remain, even when every read
// succeeded.
func TestReaderDone(t *testing.T) {
	r := NewReader([]byte{1, 0, 2})
	r.U16()
	if r.Done() || r.Err() != nil {
		t.Fatalf("Done %v Err %v with a trailing byte", r.Done(), r.Err())
	}
	r.U8()
	if !r.Done() {
		t.Fatal("not Done after the last byte")
	}
	if r := NewReader(nil); !r.Done() {
		t.Fatal("empty input not Done")
	}
}
