package arrow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"rmmap/internal/objrt"
	"rmmap/internal/simtime"
	"rmmap/internal/wire"
)

// ColKind is a column's physical type.
type ColKind uint8

// Column kinds.
const (
	KindFloat64 ColKind = 1
	KindString  ColKind = 2
)

// Column is one columnar array.
type Column struct {
	Name    string
	Kind    ColKind
	Floats  []float64 // KindFloat64
	Offsets []uint32  // KindString: len rows+1
	Bytes   []byte    // KindString payload
}

// RecordBatch is a columnar dataframe.
type RecordBatch struct {
	Rows int
	Cols []Column
}

// Stats reports an encode's work.
type Stats struct {
	Cells int
	Bytes int
}

// ErrWire marks malformed wire data.
var ErrWire = errors.New("arrow: bad wire data")

// encodeCellCost is the per-cell transform cost: cheaper than pickle's
// per-object cost (no headers, no pointer memo) but unavoidable — each
// runtime object must be visited and its value moved into the column.
func encodeCellCost(cm *simtime.CostModel) simtime.Duration {
	return cm.SerializePerObject / 2
}

// Encode transforms an objrt dataframe into a columnar batch, charging the
// producer meter for the transform.
func Encode(df objrt.Obj, meter *simtime.Meter) (*RecordBatch, Stats, error) {
	names, cols, err := df.Columns()
	if err != nil {
		return nil, Stats{}, err
	}
	rows, err := df.Rows()
	if err != nil {
		return nil, Stats{}, err
	}
	cm := df.Runtime().AS().CostModel()
	batch := &RecordBatch{Rows: rows}
	var st Stats
	for i, col := range cols {
		tag, err := col.Tag()
		if err != nil {
			return nil, Stats{}, err
		}
		out := Column{Name: names[i]}
		switch tag {
		case objrt.TNDArray:
			data, err := col.Data()
			if err != nil {
				return nil, Stats{}, err
			}
			out.Kind = KindFloat64
			out.Floats = data
			st.Cells += len(data)
			st.Bytes += 8 * len(data)
		case objrt.TList:
			n, err := col.Len()
			if err != nil {
				return nil, Stats{}, err
			}
			out.Kind = KindString
			out.Offsets = make([]uint32, 0, n+1)
			out.Offsets = append(out.Offsets, 0)
			for j := 0; j < n; j++ {
				e, err := col.Index(j)
				if err != nil {
					return nil, Stats{}, err
				}
				s, err := e.Str()
				if err != nil {
					return nil, Stats{}, fmt.Errorf("arrow: column %q cell %d: %w", names[i], j, err)
				}
				out.Bytes = append(out.Bytes, s...)
				out.Offsets = append(out.Offsets, uint32(len(out.Bytes)))
				st.Cells++
				st.Bytes += len(s)
			}
		default:
			return nil, Stats{}, fmt.Errorf("arrow: unsupported column type %v", tag)
		}
		batch.Cols = append(batch.Cols, out)
	}
	meter.Charge(simtime.CatSerialize,
		simtime.Scale(encodeCellCost(cm), st.Cells)+
			simtime.Bytes(st.Bytes, cm.SerializePerByte))
	return batch, st, nil
}

// Wire serializes the batch: a header plus the raw buffers — one copy,
// no per-cell work (that already happened in Encode).
func (b *RecordBatch) Wire(meter *simtime.Meter, cm *simtime.CostModel) []byte {
	size := 5 + 8
	for _, c := range b.Cols {
		size += 3 + len(c.Name)
		if c.Kind == KindFloat64 {
			size += 8 * len(c.Floats)
		} else {
			size += 4*len(c.Offsets) + len(c.Bytes)
		}
	}
	out := make([]byte, 0, size)
	out = append(out, "ARRW1"...)
	out = binary.LittleEndian.AppendUint32(out, uint32(b.Rows))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Cols)))
	for _, c := range b.Cols {
		out = append(out, byte(c.Kind))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(c.Name)))
		out = append(out, c.Name...)
		switch c.Kind {
		case KindFloat64:
			for _, v := range c.Floats {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		case KindString:
			for _, o := range c.Offsets {
				out = binary.LittleEndian.AppendUint32(out, o)
			}
			out = append(out, c.Bytes...)
		}
	}
	meter.Charge(simtime.CatSerialize, simtime.Bytes(len(out), cm.MemcpyPerByte))
	return out
}

// FromWire parses a batch zero-copy where possible: string bytes alias the
// input, floats are decoded in place. No meter charge beyond a header
// parse — this is Arrow's receive-side selling point, and why it beats
// pickle while still losing to RMMAP (which skips Encode too).
func FromWire(data []byte) (*RecordBatch, error) {
	r := wire.NewReader(data)
	if string(r.Bytes(5)) != "ARRW1" {
		return nil, fmt.Errorf("%w: missing magic", ErrWire)
	}
	rows := r.U32()
	b := &RecordBatch{Rows: int(rows)}
	b.Cols = make([]Column, r.Count(uint64(r.U32()), 3))
	for c := range b.Cols {
		col := &b.Cols[c]
		col.Kind = ColKind(r.U8())
		col.Name = string(r.Bytes(int(r.U16())))
		switch col.Kind {
		case KindFloat64:
			col.Floats = make([]float64, r.Count(uint64(rows), 8))
			for i := range col.Floats {
				col.Floats[i] = math.Float64frombits(r.U64())
			}
		case KindString:
			// Offsets never decrease and the last is the byte count, so
			// every cell Str slices lies within Bytes.
			col.Offsets = make([]uint32, r.Count(uint64(rows)+1, 4))
			last := uint32(0)
			for i := range col.Offsets {
				if col.Offsets[i] = r.U32(); col.Offsets[i] < last {
					return nil, fmt.Errorf("%w: column %d: string offset %d decreases", ErrWire, c, i)
				}
				last = col.Offsets[i]
			}
			col.Bytes = r.Bytes(int(last)) // zero-copy alias
		default:
			if r.Err() == nil {
				return nil, fmt.Errorf("%w: column %d kind %d", ErrWire, c, col.Kind)
			}
		}
	}
	if !r.Done() {
		return nil, fmt.Errorf("%w: batch truncated or followed by trailing bytes", ErrWire)
	}
	return b, nil
}

// Column returns a column by name.
func (b *RecordBatch) Column(name string) (*Column, error) {
	for i := range b.Cols {
		if b.Cols[i].Name == name {
			return &b.Cols[i], nil
		}
	}
	return nil, fmt.Errorf("arrow: no column %q", name)
}

// Str returns string cell i.
func (c *Column) Str(i int) (string, error) {
	if c.Kind != KindString {
		return "", fmt.Errorf("arrow: %q is not a string column", c.Name)
	}
	if i < 0 || i+1 >= len(c.Offsets) {
		return "", fmt.Errorf("arrow: row %d out of range", i)
	}
	return string(c.Bytes[c.Offsets[i]:c.Offsets[i+1]]), nil
}
