package arrow

import (
	"bytes"
	"errors"
	"testing"

	"rmmap/internal/simtime"
)

// FuzzArrowWire throws arbitrary bytes at FromWire. A malformed batch is
// an ErrWire error, never a panic. Every batch it accepts must serve Str
// for every row of every string column, and must re-encode to exactly the
// bytes it was parsed from.
func FuzzArrowWire(f *testing.F) {
	cm := simtime.DefaultCostModel()
	wire := func(b *RecordBatch) []byte { return b.Wire(simtime.NewMeter(), cm) }
	f.Add(wire(&RecordBatch{}))
	f.Add(wire(&RecordBatch{Rows: 2, Cols: []Column{
		{Name: "price", Kind: KindFloat64, Floats: []float64{1.5, -2}},
		{Name: "sym", Kind: KindString, Offsets: []uint32{0, 3, 5}, Bytes: []byte("abcde")},
	}}))
	f.Add(wire(&RecordBatch{Rows: 1, Cols: []Column{
		{Name: "s", Kind: KindString, Offsets: []uint32{5, 1}, Bytes: []byte("x")},
	}}))
	f.Add([]byte("ARRW1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := FromWire(data)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("malformed batch: %v, want ErrWire", err)
			}
			return
		}
		for _, c := range b.Cols {
			if c.Kind != KindString {
				continue
			}
			for i := 0; i < b.Rows; i++ {
				if _, err := c.Str(i); err != nil {
					t.Fatalf("column %q row %d: %v", c.Name, i, err)
				}
			}
		}
		if got := wire(b); !bytes.Equal(got, data) {
			t.Fatalf("round trip not exact:\n got %x\nwant %x", got, data)
		}
	})
}
