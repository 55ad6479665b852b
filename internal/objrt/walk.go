package objrt

import (
	"slices"
	"sort"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// WalkStats summarises one traversal.
type WalkStats struct {
	// Objects visited (each visit costs TraversePerObject at the
	// producer — the reason prefetch can lose on list(int), §5.2).
	Objects int
	// Bytes spanned by the visited objects.
	Bytes uint64
	// Complete is false if traversal hit an untraversable type or the
	// object budget.
	Complete bool
}

// Walk visits every object reachable from root (depth-first, deduplicated,
// cycle-safe), calling visit(addr, size) per object. maxObjects bounds the
// traversal (0 = unlimited): the §4.4 threshold that trades prefetch
// precision for producer-side traversal cost.
//
// NDArray, Str, Bytes, Image and Tree are single objects with contiguous
// buffers — one visit each regardless of element count, the "internal
// iterator" that makes numpy cheap to traverse. List/Dict/Tuple visit every
// element.
func Walk(root Obj, maxObjects int, visit func(addr, size uint64)) (WalkStats, error) {
	st := WalkStats{Complete: true}
	seen := make(map[uint64]struct{})
	stack := []Obj{root}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, dup := seen[o.Addr]; dup {
			continue
		}
		seen[o.Addr] = struct{}{}
		if maxObjects > 0 && st.Objects >= maxObjects {
			st.Complete = false
			return st, nil
		}
		h, err := o.header()
		if err != nil {
			return st, err
		}
		if !o.rt.Traversable(h.tag) {
			st.Complete = false
			continue
		}
		st.Objects++
		size := objectSize(h)
		st.Bytes += size
		if visit != nil {
			visit(o.Addr, size)
		}
		children, err := o.children(h)
		if err != nil {
			return st, err
		}
		stack = append(stack, children...)
	}
	return st, nil
}

// children returns the objects directly referenced by o.
func (o Obj) children(h header) ([]Obj, error) {
	switch h.tag {
	case TList, TTuple, TForest:
		out := make([]Obj, 0, h.n)
		for i := uint64(0); i < h.n; i++ {
			addr, err := o.rt.as.ReadUint64(o.Addr + HeaderSize + i*PtrSize)
			if err != nil {
				return nil, err
			}
			out = append(out, Obj{rt: o.rt, Addr: addr})
		}
		return out, nil
	case TDict, TDataFrame:
		out := make([]Obj, 0, 2*h.n)
		for i := uint64(0); i < 2*h.n; i++ {
			addr, err := o.rt.as.ReadUint64(o.Addr + HeaderSize + i*PtrSize)
			if err != nil {
				return nil, err
			}
			out = append(out, Obj{rt: o.rt, Addr: addr})
		}
		return out, nil
	default:
		return nil, nil
	}
}

// PrefetchPlan is the producer-side artifact of semantic-aware prefetching:
// the precise page set of a state, computed by traversing the object graph
// with the language runtime (§4.4). It travels to the consumer inside the
// coordinator message.
type PrefetchPlan struct {
	Pages []memsim.VPN
	WalkStats
}

// adaptiveSample is how many objects the adaptive policy inspects before
// deciding whether full traversal pays off.
const adaptiveSample = 64

// PlanPrefetchAdaptive implements the threshold policy the paper leaves
// as future work (§4.4): it samples the graph to estimate object density,
// then traverses fully only when the per-page fault saving exceeds the
// per-page traversal cost. It returns (plan, true) when prefetching is
// worthwhile, or (nil, false) to fall back to demand paging; the sampling
// walk is charged either way.
func PlanPrefetchAdaptive(root Obj, meter *simtime.Meter) (*PrefetchPlan, bool, error) {
	cm := root.rt.cm
	var sizes []uint64
	st, err := Walk(root, adaptiveSample, func(addr, size uint64) {
		sizes = append(sizes, size)
	})
	if err != nil {
		return nil, false, err
	}
	meter.Charge(simtime.CatRegister, simtime.Scale(cm.TraversePerObject, st.Objects))
	// Median object size: the mean is skewed by the root container's
	// pointer array (a 100k-element list is one huge object followed by
	// 100k tiny ones).
	typical := uint64(1)
	if len(sizes) > 0 {
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
		typical = sizes[len(sizes)/2]
		if typical == 0 {
			typical = 1
		}
	}
	objectsPerPage := uint64(memsim.PageSize) / typical
	if objectsPerPage == 0 {
		objectsPerPage = 1
	}
	traversalPerPage := simtime.Scale(cm.TraversePerObject, int(objectsPerPage))
	// A prefetched page skips the fault trap and rides a doorbell batch
	// instead of a standalone read; bytes cost the same either way.
	base := cm.RDMAPageRead - simtime.Bytes(memsim.PageSize, cm.RDMAPerByte)
	if base < 0 {
		base = 0
	}
	saving := cm.PageFault + base - cm.DoorbellPerPage
	if traversalPerPage > saving {
		return nil, false, nil
	}
	plan, err := PlanPrefetch(root, 0, meter)
	if err != nil {
		return nil, false, err
	}
	return plan, true, nil
}

// PlanPrefetch traverses root and derives the sorted page set spanned by
// its reachable objects, charging the producer's meter per object visited
// (CatRegister: this work happens at register time on the producer).
// maxObjects (0 = unlimited) is the traversal threshold; when the budget is
// exhausted the plan is partial and remaining pages will demand-fault.
func PlanPrefetch(root Obj, maxObjects int, meter *simtime.Meter) (*PrefetchPlan, error) {
	var pages []memsim.VPN
	st, err := Walk(root, maxObjects, func(addr, size uint64) {
		for vpn := memsim.PageOf(addr); vpn.Base() < addr+size; vpn++ {
			pages = append(pages, vpn)
		}
	})
	if err != nil {
		return nil, err
	}
	cm := root.rt.cm
	meter.Charge(simtime.CatRegister, simtime.Scale(cm.TraversePerObject, st.Objects))
	slices.Sort(pages)
	return &PrefetchPlan{WalkStats: st, Pages: slices.Compact(pages)}, nil
}
