package objrt

import (
	"errors"
	"math"
	"testing"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

const (
	testHeapStart = uint64(0x10000000)
	testHeapEnd   = uint64(0x18000000) // 128 MB
)

func newRT(t testing.TB) *Runtime {
	t.Helper()
	return newRTLang(t, LangPython, nil)
}

func newRTLang(t testing.TB, lang Lang, cds *CDS) *Runtime {
	t.Helper()
	m := memsim.NewMachine(0)
	as := memsim.NewAddressSpace(m, simtime.DefaultCostModel())
	as.SetMeter(simtime.NewMeter())
	rt, err := NewRuntime(as, Config{HeapStart: testHeapStart, HeapEnd: testHeapEnd, Lang: lang, CDS: cds})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func mustInt(t *testing.T, rt *Runtime, v int64) Obj {
	t.Helper()
	o, err := rt.NewInt(v)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestIntRoundtrip(t *testing.T) {
	rt := newRT(t)
	o := mustInt(t, rt, -987654321)
	v, err := o.Int()
	if err != nil {
		t.Fatal(err)
	}
	if v != -987654321 {
		t.Errorf("got %d", v)
	}
	if tag, _ := o.Tag(); tag != TInt {
		t.Errorf("tag = %v", tag)
	}
}

func TestFloatRoundtrip(t *testing.T) {
	rt := newRT(t)
	for _, want := range []float64{0, -1.5, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64} {
		o, err := rt.NewFloat(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.Float()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("got %v, want %v", got, want)
		}
	}
}

func TestStrRoundtrip(t *testing.T) {
	rt := newRT(t)
	want := "état de transfert — 序列化"
	o, err := rt.NewStr(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.Str()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("got %q", got)
	}
}

func TestBytesRoundtrip(t *testing.T) {
	rt := newRT(t)
	want := []byte{0, 1, 255, 42}
	o, err := rt.NewBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("got %v", got)
	}
}

func TestListIndexing(t *testing.T) {
	rt := newRT(t)
	lst, err := rt.NewIntList([]int64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	n, err := lst.Len()
	if err != nil || n != 3 {
		t.Fatalf("len = %d, err %v", n, err)
	}
	for i, want := range []int64{10, 20, 30} {
		e, err := lst.Index(i)
		if err != nil {
			t.Fatal(err)
		}
		v, err := e.Int()
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Errorf("[%d] = %d, want %d", i, v, want)
		}
	}
	if _, err := lst.Index(3); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := lst.Index(-1); err == nil {
		t.Error("negative index accepted")
	}
}

func TestDictLookup(t *testing.T) {
	rt := newRT(t)
	k1, _ := rt.NewStr("alpha")
	v1 := mustInt(t, rt, 1)
	k2, _ := rt.NewStr("beta")
	v2 := mustInt(t, rt, 2)
	d, err := rt.NewDict([][2]Obj{{k1, v1}, {k2, v2}})
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.DictGet("beta")
	if err != nil || !ok {
		t.Fatalf("DictGet: ok=%v err=%v", ok, err)
	}
	if v, _ := got.Int(); v != 2 {
		t.Errorf("beta = %d", v)
	}
	if _, ok, _ := d.DictGet("gamma"); ok {
		t.Error("found missing key")
	}
}

func TestNDArray(t *testing.T) {
	rt := newRT(t)
	data := []float64{1, 2, 3, 4, 5, 6}
	a, err := rt.NewNDArray([]int{2, 3}, data)
	if err != nil {
		t.Fatal(err)
	}
	shape, err := a.Shape()
	if err != nil || len(shape) != 2 || shape[0] != 2 || shape[1] != 3 {
		t.Fatalf("shape = %v, err %v", shape, err)
	}
	got, err := a.Data()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("data = %v", got)
		}
	}
	if v, _ := a.At(4); v != 5 {
		t.Errorf("At(4) = %v", v)
	}
	if _, err := rt.NewNDArray([]int{2, 2}, data); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestDataFrame(t *testing.T) {
	rt := newRT(t)
	col1, _ := rt.NewNDArray([]int{3}, []float64{1.5, 2.5, 3.5})
	col2, _ := rt.NewStrList([]string{"a", "b", "c"})
	df, err := rt.NewDataFrame([]string{"price", "symbol"}, []Obj{col1, col2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := df.Rows(); rows != 3 {
		t.Errorf("rows = %d", rows)
	}
	price, err := df.Column("price")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := price.At(1); v != 2.5 {
		t.Errorf("price[1] = %v", v)
	}
	sym, err := df.Column("symbol")
	if err != nil {
		t.Fatal(err)
	}
	e, _ := sym.Index(2)
	if s, _ := e.Str(); s != "c" {
		t.Errorf("symbol[2] = %q", s)
	}
	if _, err := df.Column("missing"); err == nil {
		t.Error("missing column found")
	}
}

func TestImage(t *testing.T) {
	rt := newRT(t)
	px := make([]byte, 28*28)
	for i := range px {
		px[i] = byte(i)
	}
	img, err := rt.NewImage(28, 28, px)
	if err != nil {
		t.Fatal(err)
	}
	w, h, err := img.ImageDims()
	if err != nil || w != 28 || h != 28 {
		t.Fatalf("dims = %dx%d", w, h)
	}
	got, err := img.Pixels()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(px) || got[100] != 100 {
		t.Error("pixel data corrupted")
	}
}

func TestTreePredict(t *testing.T) {
	rt := newRT(t)
	// if f0 <= 0.5 then 1.0 else (if f1 <= 2 then 5 else 9)
	tree, err := rt.NewTree([]TreeNode{
		{Feature: 0, Threshold: 0.5, Left: 1, Right: 2},
		{Feature: -1, Value: 1.0},
		{Feature: 1, Threshold: 2, Left: 3, Right: 4},
		{Feature: -1, Value: 5.0},
		{Feature: -1, Value: 9.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		f    []float64
		want float64
	}{
		{[]float64{0.3, 0}, 1},
		{[]float64{0.9, 1}, 5},
		{[]float64{0.9, 7}, 9},
	}
	for _, c := range cases {
		got, err := tree.PredictTree(c.f)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("predict(%v) = %v, want %v", c.f, got, c.want)
		}
	}
	forest, err := rt.NewForest([]Obj{tree, tree})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := forest.PredictForest([]float64{0.3, 0}); got != 1 {
		t.Errorf("forest = %v", got)
	}
}

func TestWrongTypeErrors(t *testing.T) {
	rt := newRT(t)
	o := mustInt(t, rt, 5)
	if _, err := o.Str(); !errors.Is(err, ErrWrongType) {
		t.Errorf("Str on int: %v", err)
	}
	if _, err := o.Index(0); !errors.Is(err, ErrWrongType) {
		t.Errorf("Index on int: %v", err)
	}
}

func TestLoadValidatesHeader(t *testing.T) {
	rt := newRT(t)
	o := mustInt(t, rt, 5)
	if _, err := rt.Load(o.Addr); err != nil {
		t.Errorf("Load valid: %v", err)
	}
	// Garbage address within the heap.
	if _, err := rt.Load(o.Addr + 4); !errors.Is(err, ErrBadObject) {
		t.Errorf("Load garbage: %v", err)
	}
}

func TestJavaCDSTypeCheck(t *testing.T) {
	shared := DefaultCDS()
	prod := newRTLang(t, LangJava, shared)
	o, err := prod.NewInt(7)
	if err != nil {
		t.Fatal(err)
	}
	// Same archive: check passes (consumer reading through its own
	// runtime is modelled by Load on the same AS here; cross-AS checks
	// are covered in the transfer tests).
	if _, err := prod.Load(o.Addr); err != nil {
		t.Errorf("same-archive load: %v", err)
	}

	// A consumer with a different archive version must reject the object.
	otherArchive := shared.WithVersion("jdk17-cds9", 1000)
	cons, err := NewRuntime(prod.AS(), Config{
		HeapStart: testHeapEnd, HeapEnd: testHeapEnd + 0x100000,
		Lang: LangJava, CDS: otherArchive,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cons.Load(o.Addr); !errors.Is(err, ErrKlass) {
		t.Errorf("cross-version load: %v, want ErrKlass", err)
	}
}

func TestPythonModeSkipsKlass(t *testing.T) {
	rt := newRT(t)
	o := mustInt(t, rt, 7)
	if _, err := rt.Load(o.Addr); err != nil {
		t.Errorf("python load: %v", err)
	}
	if rt.CDS() != nil {
		t.Error("python runtime has a CDS archive")
	}
}

func TestViewRebindsRuntime(t *testing.T) {
	rt := newRT(t)
	o := mustInt(t, rt, 11)
	rt2, err := NewRuntime(rt.AS(), Config{HeapStart: testHeapEnd, HeapEnd: testHeapEnd + 0x100000})
	if err != nil {
		t.Fatal(err)
	}
	v := o.View(rt2)
	if got, err := v.Int(); err != nil || got != 11 {
		t.Errorf("view read = %d, %v", got, err)
	}
	if v.Runtime() != rt2 {
		t.Error("View did not rebind")
	}
}
