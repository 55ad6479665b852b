package objrt

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"rmmap/internal/simtime"
)

// FuzzUnpickle throws arbitrary bytes at the pickle decoder. Unpickle reads
// every message and storage payload a consumer receives, so it must never
// panic or size an allocation by an untrusted count: a malformed stream is
// an ErrPickle error (the heap is far larger than any fuzz input needs), and
// any stream it accepts must re-pickle to a canonical form that is a fixed
// point of Pickle∘Unpickle. The seeds, one pickle rooted at every tag, must
// round-trip byte-for-byte. testdata/fuzz/FuzzUnpickle holds two former
// crashes: a record count far beyond what the stream can hold (an
// out-of-memory abort from a count-sized allocation) and a list length
// whose payload size wrapped to 0 (an index-out-of-range panic). Unpickle
// must also agree with its pre-port oracle (oracle_test.go): the same
// verdict, and on success the same root and the same allocations, address
// for address.
func FuzzUnpickle(f *testing.F) {
	rt := newRT(f)
	i, _ := rt.NewInt(-7)
	fl, _ := rt.NewFloat(2.5)
	s, _ := rt.NewStr("key")
	b, _ := rt.NewBytes([]byte{0, 1, 0xff})
	l, _ := rt.NewList([]Obj{i, s, i})
	tu, _ := rt.NewTuple([]Obj{s})
	d, _ := rt.NewDict([][2]Obj{{s, i}})
	arr, _ := rt.NewNDArray([]int{2, 2}, []float64{1, 2, 3, 4})
	df, _ := rt.NewDataFrame([]string{"x"}, []Obj{arr}, 2)
	img, _ := rt.NewImage(2, 1, []byte{9, 8})
	tree, _ := rt.NewTree([]TreeNode{{Feature: 0, Threshold: 0.5, Left: 1, Right: 1}, {Feature: -1, Value: 1}})
	forest, _ := rt.NewForest([]Obj{tree, tree})
	for _, root := range []Obj{i, fl, s, b, l, tu, d, arr, df, img, tree, forest} {
		data, _, err := Pickle(root, simtime.NewMeter())
		if err != nil {
			f.Fatal(err)
		}
		if got, err := repickle(f, data); err != nil || !bytes.Equal(got, data) {
			f.Fatalf("seed does not round-trip (%v):\n got %x\nwant %x", err, got, data)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rt, oldRT := newRT(t), newRT(t)
		root, err := Unpickle(rt, data, simtime.NewMeter())
		oldRoot, oldErr := oldUnpickle(oldRT, data, simtime.NewMeter())
		if (err == nil) != (oldErr == nil) || errors.Is(err, ErrPickle) != errors.Is(oldErr, ErrPickle) {
			t.Fatalf("Unpickle err %v, oracle %v", err, oldErr)
		}
		if err == nil && (root.Addr != oldRoot.Addr || !reflect.DeepEqual(allocs(rt), allocs(oldRT))) {
			t.Fatalf("Unpickle allocations differ from the oracle's")
		}

		canon, err := repickle(t, data)
		if err != nil {
			if !errors.Is(err, ErrPickle) {
				t.Fatalf("malformed stream: %v, want ErrPickle", err)
			}
			return
		}
		if again, err := repickle(t, canon); err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("canonical form is not a fixed point (%v):\n got %x\nwant %x", err, again, canon)
		}
	})
}

// allocs maps each live allocation on rt's heap to its size.
func allocs(rt *Runtime) map[uint64]uint64 {
	m := map[uint64]uint64{}
	rt.Heap().EachAlloc(func(addr, size uint64) { m[addr] = size })
	return m
}

// repickle decodes data onto a fresh runtime and pickles the result again.
func repickle(tb testing.TB, data []byte) ([]byte, error) {
	root, err := Unpickle(newRT(tb), data, simtime.NewMeter())
	if err != nil {
		return nil, err
	}
	out, _, err := Pickle(root, simtime.NewMeter())
	return out, err
}
