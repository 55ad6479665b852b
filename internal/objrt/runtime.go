package objrt

import (
	"fmt"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// Lang selects runtime behaviour where Python and Java differ (§4.3 "Type
// safety"): Java-mode objects carry klass IDs validated against the shared
// CDS archive; Python-mode type metadata is plain heap data reached through
// the mapping itself.
type Lang int

// Supported language modes.
const (
	LangPython Lang = iota
	LangJava
)

func (l Lang) String() string {
	if l == LangJava {
		return "java"
	}
	return "python"
}

// Runtime is one container's language runtime: an object heap inside the
// container's address space plus the runtime-side metadata (allocator
// state, GC roots, remote-heap proxies, CDS archive).
type Runtime struct {
	as   *memsim.AddressSpace
	heap *Heap
	cm   *simtime.CostModel
	lang Lang
	cds  *CDS

	roots  map[uint64]struct{}
	remote []*RemoteRef
	noIter map[Tag]bool
}

// Config configures a runtime.
type Config struct {
	HeapStart, HeapEnd uint64
	Lang               Lang
	// CDS is the shared class-data archive for Java mode. Producer and
	// consumer runtimes must share the same archive for cross-heap type
	// checks to pass; nil in Java mode creates a fresh default archive.
	CDS *CDS
}

// NewRuntime creates a runtime on as, mapping its heap segment if the
// platform has not already done so.
func NewRuntime(as *memsim.AddressSpace, cfg Config) (*Runtime, error) {
	if cfg.HeapEnd <= cfg.HeapStart {
		return nil, fmt.Errorf("objrt: bad heap range [%#x,%#x)", cfg.HeapStart, cfg.HeapEnd)
	}
	if as.FindVMA(cfg.HeapStart) == nil {
		if err := as.MapAnon(cfg.HeapStart, cfg.HeapEnd, memsim.SegHeap, true); err != nil {
			return nil, err
		}
	}
	cds := cfg.CDS
	if cfg.Lang == LangJava && cds == nil {
		cds = DefaultCDS()
	}
	return &Runtime{
		as:     as,
		heap:   NewHeap(cfg.HeapStart, cfg.HeapEnd),
		cm:     as.CostModel(),
		lang:   cfg.Lang,
		cds:    cds,
		roots:  make(map[uint64]struct{}),
		noIter: make(map[Tag]bool),
	}, nil
}

// AS returns the underlying address space.
func (rt *Runtime) AS() *memsim.AddressSpace { return rt.as }

// Heap returns the runtime's heap.
func (rt *Runtime) Heap() *Heap { return rt.heap }

// Lang returns the language mode.
func (rt *Runtime) Lang() Lang { return rt.lang }

// CDS returns the class-data archive (nil in Python mode).
func (rt *Runtime) CDS() *CDS { return rt.cds }

// SetTraversable marks whether a type supports iterator-based traversal.
// All built-ins are traversable; a third-party type without __iter__
// (§4.4's numpy example before the 12-LoC wrapper) can be switched off to
// exercise the no-prefetch fallback.
func (rt *Runtime) SetTraversable(tag Tag, ok bool) { rt.noIter[tag] = !ok }

// Traversable reports whether tag supports traversal.
func (rt *Runtime) Traversable(tag Tag) bool { return !rt.noIter[tag] }

// klassFor returns the aux klass ID for a new object (Java mode only).
func (rt *Runtime) klassFor(tag Tag) uint32 {
	if rt.lang == LangJava && rt.cds != nil {
		return rt.cds.KlassID(tag)
	}
	return 0
}

func (rt *Runtime) alloc(h header) (Obj, error) {
	addr, err := rt.heap.Alloc(objectSize(h))
	if err != nil {
		return Obj{}, err
	}
	hdr := encodeHeader(h)
	if err := rt.as.Write(addr, hdr[:]); err != nil {
		return Obj{}, err
	}
	return Obj{rt: rt, Addr: addr}, nil
}

// --- constructors ---

// NewInt allocates a boxed integer.
func (rt *Runtime) NewInt(v int64) (Obj, error) {
	o, err := rt.alloc(header{tag: TInt, aux: rt.klassFor(TInt), n: 0})
	if err != nil {
		return Obj{}, err
	}
	return o, rt.as.WriteUint64(o.Addr+HeaderSize, uint64(v))
}

// NewFloat allocates a boxed float64.
func (rt *Runtime) NewFloat(v float64) (Obj, error) {
	o, err := rt.alloc(header{tag: TFloat, aux: rt.klassFor(TFloat), n: 0})
	if err != nil {
		return Obj{}, err
	}
	return o, rt.as.WriteUint64(o.Addr+HeaderSize, f64bits(v))
}

// NewStr allocates a string object.
func (rt *Runtime) NewStr(s string) (Obj, error) {
	o, err := rt.alloc(header{tag: TStr, aux: rt.klassFor(TStr), n: uint64(len(s))})
	if err != nil {
		return Obj{}, err
	}
	return o, rt.as.Write(o.Addr+HeaderSize, []byte(s))
}

// NewBytes allocates a bytes object.
func (rt *Runtime) NewBytes(b []byte) (Obj, error) {
	o, err := rt.alloc(header{tag: TBytes, aux: rt.klassFor(TBytes), n: uint64(len(b))})
	if err != nil {
		return Obj{}, err
	}
	return o, rt.as.Write(o.Addr+HeaderSize, b)
}

func (rt *Runtime) newPtrSeq(tag Tag, elems []Obj) (Obj, error) {
	o, err := rt.alloc(header{tag: tag, aux: rt.klassFor(tag), n: uint64(len(elems))})
	if err != nil {
		return Obj{}, err
	}
	buf := make([]byte, len(elems)*PtrSize)
	for i, e := range elems {
		putU64(buf[i*PtrSize:], e.Addr)
	}
	return o, rt.as.Write(o.Addr+HeaderSize, buf)
}

// NewList allocates a list of object references.
func (rt *Runtime) NewList(elems []Obj) (Obj, error) { return rt.newPtrSeq(TList, elems) }

// NewTuple allocates a tuple of object references.
func (rt *Runtime) NewTuple(elems []Obj) (Obj, error) { return rt.newPtrSeq(TTuple, elems) }

// NewForest allocates a forest (list of trees) model object.
func (rt *Runtime) NewForest(trees []Obj) (Obj, error) { return rt.newPtrSeq(TForest, trees) }

// NewDict allocates a dict of (key, value) reference pairs.
func (rt *Runtime) NewDict(pairs [][2]Obj) (Obj, error) {
	o, err := rt.alloc(header{tag: TDict, aux: rt.klassFor(TDict), n: uint64(len(pairs))})
	if err != nil {
		return Obj{}, err
	}
	buf := make([]byte, len(pairs)*2*PtrSize)
	for i, p := range pairs {
		putU64(buf[i*2*PtrSize:], p[0].Addr)
		putU64(buf[i*2*PtrSize+PtrSize:], p[1].Addr)
	}
	return o, rt.as.Write(o.Addr+HeaderSize, buf)
}

// NewNDArray allocates an n-dimensional float64 array with a single
// contiguous buffer (numpy-style).
func (rt *Runtime) NewNDArray(shape []int, data []float64) (Obj, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return Obj{}, fmt.Errorf("objrt: shape %v does not match %d elements", shape, len(data))
	}
	aux := uint32(len(shape))
	if rt.lang == LangJava {
		// Java mode keeps the klass in the high half of aux.
		aux |= rt.klassFor(TNDArray) << 16
	}
	o, err := rt.alloc(header{tag: TNDArray, aux: aux, n: uint64(n)})
	if err != nil {
		return Obj{}, err
	}
	buf := make([]byte, len(shape)*8+len(data)*8)
	for i, d := range shape {
		putU64(buf[i*8:], uint64(d))
	}
	off := len(shape) * 8
	for i, v := range data {
		putU64(buf[off+i*8:], f64bits(v))
	}
	return o, rt.as.Write(o.Addr+HeaderSize, buf)
}

// NewDataFrame allocates a dataframe: named columns, where each column is
// any object (NDArray for numeric columns, List-of-Str for object
// columns — the layout that gives real dataframes their huge sub-object
// counts).
func (rt *Runtime) NewDataFrame(names []string, cols []Obj, rows int) (Obj, error) {
	if len(names) != len(cols) {
		return Obj{}, fmt.Errorf("objrt: %d names vs %d columns", len(names), len(cols))
	}
	o, err := rt.alloc(header{tag: TDataFrame, aux: uint32(rows), n: uint64(len(cols))})
	if err != nil {
		return Obj{}, err
	}
	buf := make([]byte, len(cols)*2*PtrSize)
	for i := range cols {
		nameObj, err := rt.NewStr(names[i])
		if err != nil {
			return Obj{}, err
		}
		putU64(buf[i*2*PtrSize:], nameObj.Addr)
		putU64(buf[i*2*PtrSize+PtrSize:], cols[i].Addr)
	}
	return o, rt.as.Write(o.Addr+HeaderSize, buf)
}

// NewImage allocates an image object with raw pixel bytes.
func (rt *Runtime) NewImage(w, h int, pixels []byte) (Obj, error) {
	if w <= 0 || h <= 0 || w >= 1<<16 || h >= 1<<16 {
		return Obj{}, fmt.Errorf("objrt: bad image dims %dx%d", w, h)
	}
	o, err := rt.alloc(header{tag: TImage, aux: uint32(w)<<16 | uint32(h), n: uint64(len(pixels))})
	if err != nil {
		return Obj{}, err
	}
	return o, rt.as.Write(o.Addr+HeaderSize, pixels)
}

// NewTree allocates a decision tree with inline node storage.
func (rt *Runtime) NewTree(nodes []TreeNode) (Obj, error) {
	o, err := rt.alloc(header{tag: TTree, aux: rt.klassFor(TTree), n: uint64(len(nodes))})
	if err != nil {
		return Obj{}, err
	}
	buf := make([]byte, len(nodes)*treeNodeSize)
	for i, nd := range nodes {
		off := i * treeNodeSize
		putU64(buf[off:], uint64(nd.Feature))
		putU64(buf[off+8:], f64bits(nd.Threshold))
		putU64(buf[off+16:], uint64(nd.Left))
		putU64(buf[off+24:], uint64(nd.Right))
		putU64(buf[off+32:], f64bits(nd.Value))
	}
	return o, rt.as.Write(o.Addr+HeaderSize, buf)
}

// NewIntList builds a Python-style list of boxed ints — the list(int)
// microbenchmark type, whose per-element boxing is what makes its
// serialization and traversal expensive.
func (rt *Runtime) NewIntList(vals []int64) (Obj, error) {
	elems := make([]Obj, len(vals))
	for i, v := range vals {
		o, err := rt.NewInt(v)
		if err != nil {
			return Obj{}, err
		}
		elems[i] = o
	}
	return rt.NewList(elems)
}

// NewStrList builds a list of string objects (the list(str) type).
func (rt *Runtime) NewStrList(vals []string) (Obj, error) {
	elems := make([]Obj, len(vals))
	for i, v := range vals {
		o, err := rt.NewStr(v)
		if err != nil {
			return Obj{}, err
		}
		elems[i] = o
	}
	return rt.NewList(elems)
}

// Load returns an object view at addr, validating the header. addr may be
// local or inside a remotely mapped range; remote loads fault pages in
// through the kernel transparently.
func (rt *Runtime) Load(addr uint64) (Obj, error) {
	o := Obj{rt: rt, Addr: addr}
	h, err := o.header()
	if err != nil {
		return Obj{}, err
	}
	if err := rt.checkKlass(h); err != nil {
		return Obj{}, err
	}
	return o, nil
}

// checkKlass validates type metadata in Java mode (§4.3): the aux klass ID
// must resolve to the same class name in the consumer's CDS archive.
func (rt *Runtime) checkKlass(h header) error {
	if rt.lang != LangJava || rt.cds == nil {
		return nil
	}
	klass := h.aux
	if h.tag == TNDArray {
		klass = h.aux >> 16
	}
	if h.tag == TDataFrame {
		// Row count occupies aux for dataframes; klass check not
		// applicable (Python-only type).
		return nil
	}
	return rt.cds.Check(h.tag, klass)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
