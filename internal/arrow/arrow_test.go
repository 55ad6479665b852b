package arrow

import (
	"testing"

	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/simtime"
	"rmmap/internal/workloads"
)

func newRT(t *testing.T) *objrt.Runtime {
	t.Helper()
	as := memsim.NewAddressSpace(memsim.NewMachine(0), simtime.DefaultCostModel())
	as.SetMeter(simtime.NewMeter())
	rt, err := objrt.NewRuntime(as, objrt.Config{HeapStart: 0x10000000, HeapEnd: 0x40000000})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestEncodeWireRoundtrip(t *testing.T) {
	rt := newRT(t)
	df, err := workloads.GenTrades(rt, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	meter := simtime.NewMeter()
	batch, st, err := Encode(df, meter)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells == 0 || meter.Get(simtime.CatSerialize) == 0 {
		t.Fatal("encode did no work")
	}
	cm := simtime.DefaultCostModel()
	wire := batch.Wire(meter, cm)
	back, err := FromWire(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != 300 || len(back.Cols) != 5 {
		t.Fatalf("batch %dx%d", back.Rows, len(back.Cols))
	}
	// Values survive: compare against the object layer.
	price, _ := df.Column("price")
	want, _ := price.Data()
	col, err := back.Column("price")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if col.Floats[i] != want[i] {
			t.Fatalf("price[%d] = %v, want %v", i, col.Floats[i], want[i])
		}
	}
	symCol, err := back.Column("symbol")
	if err != nil {
		t.Fatal(err)
	}
	sym, _ := df.Column("symbol")
	e, _ := sym.Index(42)
	wantS, _ := e.Str()
	if got, _ := symCol.Str(42); got != wantS {
		t.Errorf("symbol[42] = %q, want %q", got, wantS)
	}
}

func TestFromWireRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXXX"),
		[]byte("ARRW1\x01\x00\x00\x00\x01\x00\x00\x00"), // truncated column
		// String offsets [5, 1] go backwards: Str(0) used to panic.
		[]byte("ARRW1\x01\x00\x00\x00\x01\x00\x00\x00\x02\x01\x00s\x05\x00\x00\x00\x01\x00\x00\x00x"),
	}
	for i, data := range cases {
		if _, err := FromWire(data); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEncodeRejectsNonDataframe(t *testing.T) {
	rt := newRT(t)
	o, _ := rt.NewInt(5)
	if _, _, err := Encode(o, simtime.NewMeter()); err == nil {
		t.Error("non-dataframe accepted")
	}
}

func TestArrowCheaperThanPickleReceive(t *testing.T) {
	// Arrow's point: receive side is zero-copy. For the same dataframe,
	// pickle's deserialize charge must dwarf Arrow's (nil) reconstruct.
	rt := newRT(t)
	df, err := workloads.GenTrades(rt, 2000, 6)
	if err != nil {
		t.Fatal(err)
	}
	pm := simtime.NewMeter()
	data, _, err := objrt.Pickle(df, pm)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := newRT(t)
	dm := simtime.NewMeter()
	if _, err := objrt.Unpickle(rt2, data, dm); err != nil {
		t.Fatal(err)
	}

	am := simtime.NewMeter()
	batch, _, err := Encode(df, am)
	if err != nil {
		t.Fatal(err)
	}
	wire := batch.Wire(am, simtime.DefaultCostModel())
	if _, err := FromWire(wire); err != nil {
		t.Fatal(err)
	}
	// Arrow: no deserialize charge at all; total transform below pickle's
	// serialize+deserialize.
	if am.Get(simtime.CatDeserialize) != 0 {
		t.Error("arrow receive charged deserialization")
	}
	if am.Total() >= pm.Get(simtime.CatSerialize)+dm.Get(simtime.CatDeserialize) {
		t.Errorf("arrow total %v not below pickle serdes %v",
			am.Total(), pm.Get(simtime.CatSerialize)+dm.Get(simtime.CatDeserialize))
	}
}
