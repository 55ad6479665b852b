package platform

import (
	"cmp"
	"fmt"
	"slices"

	"rmmap/internal/memsim"
)

// Static virtual-memory planning (§4.2): every (function type, instance)
// pair gets a disjoint address range, sized by the function's memory
// budget, so that any consumer can rmap any producer with zero chance of
// collision — including cached containers reused across requests, which is
// why the plan is static rather than per-request.

// Planner geometry. x86-64 exposes a 2^48 B user space; we plan inside
// [PlanBase, PlanLimit).
const (
	PlanBase  = uint64(0x0000_1000_0000)
	PlanLimit = uint64(1) << 47
	// DefaultMemBudget is the per-instance budget when the spec leaves
	// MemBudget zero.
	DefaultMemBudget = uint64(1) << 30 // 1 GB
)

// Range is a half-open address range.
type Range struct{ Start, End uint64 }

// Len returns the range length.
func (r Range) Len() uint64 { return r.End - r.Start }

// Overlaps reports whether two ranges intersect.
func (r Range) Overlaps(o Range) bool { return r.Start < o.End && o.Start < r.End }

// SlotID names one plan slot: a function type plus an instance index.
type SlotID struct {
	Function string
	Instance int
}

func (s SlotID) String() string { return fmt.Sprintf("%s#%d", s.Function, s.Instance) }

// Layout positions a container's segments within its slot range. Text and
// data are placed by the augmented link script; heap and stack are pinned
// with set_segment.
type Layout struct {
	Range
	TextStart, TextEnd   uint64
	DataStart, DataEnd   uint64
	HeapStart, HeapEnd   uint64
	StackStart, StackEnd uint64
}

// Segment sizes within a slot.
const (
	textSize  = uint64(16 << 20) // imported libraries live here (§6)
	dataSize  = uint64(4 << 20)
	stackSize = uint64(8 << 20)
)

// layoutFor carves a slot range into segments.
func layoutFor(r Range) Layout {
	l := Layout{Range: r}
	l.TextStart = r.Start
	l.TextEnd = r.Start + textSize
	l.DataStart = l.TextEnd
	l.DataEnd = l.DataStart + dataSize
	l.StackEnd = r.End
	l.StackStart = r.End - stackSize
	l.HeapStart = l.DataEnd
	l.HeapEnd = l.StackStart
	return l
}

// Plan assigns a disjoint range (and layout) to every slot of a workflow.
type Plan struct {
	Workflow string
	slots    map[SlotID]Layout
	order    []SlotID // deterministic iteration order
}

// GeneratePlan traverses the DAG and partitions the address space across
// all (type, instance) slots, conservatively using each type's maximum
// concurrency (§4.2). It fails if the workflow cannot fit the user address
// space.
func GeneratePlan(w *Workflow) (*Plan, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Workflow: w.Name, slots: make(map[SlotID]Layout)}
	next := PlanBase
	for _, f := range w.Functions {
		budget := f.MemBudget
		if budget == 0 {
			budget = DefaultMemBudget
		}
		budget = (budget + memsim.PageSize - 1) &^ uint64(memsim.PageSize-1)
		if budget < textSize+dataSize+stackSize+memsim.PageSize {
			return nil, fmt.Errorf("platform: budget %d too small for %q", budget, f.Name)
		}
		if fit := (PlanLimit - next) / budget; uint64(f.Instances) > fit {
			return nil, fmt.Errorf("platform: plan exceeds user address space at %s#%d", f.Name, fit)
		}
		for i := 0; i < f.Instances; i++ {
			id := SlotID{f.Name, i}
			p.slots[id] = layoutFor(Range{next, next + budget})
			p.order = append(p.order, id)
			next += budget
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Slot returns the layout for a slot.
func (p *Plan) Slot(id SlotID) (Layout, bool) {
	l, ok := p.slots[id]
	return l, ok
}

// Slots returns all slot IDs in plan order.
func (p *Plan) Slots() []SlotID { return p.order }

// Validate re-checks the disjointness invariant (GeneratePlan runs it on
// every plan it returns; UnmarshalJSON and the rmmap plan subcommand do
// too).
func (p *Plan) Validate() error {
	type entry struct {
		id SlotID
		l  Layout
	}
	entries := make([]entry, 0, len(p.order))
	for _, id := range p.order {
		entries = append(entries, entry{id, p.slots[id]})
	}
	// A generated plan is already in address order; only a loaded one may
	// need sorting.
	byStart := func(a, b entry) int { return cmp.Compare(a.l.Start, b.l.Start) }
	if !slices.IsSortedFunc(entries, byStart) {
		slices.SortFunc(entries, byStart)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].l.End > entries[i].l.Start {
			return fmt.Errorf("platform: plan overlap %v and %v", entries[i-1].id, entries[i].id)
		}
	}
	for _, e := range entries {
		if l := e.l; l.TextEnd > l.DataStart || l.DataEnd > l.HeapStart ||
			l.HeapEnd > l.StackStart || l.StackEnd != l.Range.End || l.HeapStart >= l.HeapEnd {
			return fmt.Errorf("platform: bad layout for %v", e.id)
		}
	}
	return nil
}
