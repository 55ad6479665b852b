package platform

import (
	"fmt"
	"testing"
	"testing/quick"

	"rmmap/internal/objrt"
)

func nopHandler(ctx *Ctx) (objrt.Obj, error) { return objrt.Obj{}, nil }

func linWorkflow(widths ...int) *Workflow {
	w := &Workflow{Name: "lin"}
	for i, n := range widths {
		w.Functions = append(w.Functions, &FunctionSpec{
			Name: fmt.Sprintf("f%d", i), Instances: n, Handler: nopHandler,
		})
		if i > 0 {
			w.Edges = append(w.Edges, Edge{fmt.Sprintf("f%d", i-1), fmt.Sprintf("f%d", i)})
		}
	}
	return w
}

func TestWorkflowValidate(t *testing.T) {
	if err := linWorkflow(1, 3, 1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := linWorkflow(1, 2)
	bad.Edges = append(bad.Edges, Edge{"f1", "f0"}) // cycle
	if err := bad.Validate(); err == nil {
		t.Error("cycle accepted")
	}
	dup := linWorkflow(1)
	dup.Functions = append(dup.Functions, dup.Functions[0])
	if err := dup.Validate(); err == nil {
		t.Error("duplicate name accepted")
	}
	zero := linWorkflow(1)
	zero.Functions[0].Instances = 0
	if err := zero.Validate(); err == nil {
		t.Error("zero instances accepted")
	}
	nohdl := linWorkflow(1)
	nohdl.Functions[0].Handler = nil
	if err := nohdl.Validate(); err == nil {
		t.Error("missing handler accepted")
	}
	badEdge := linWorkflow(1)
	badEdge.Edges = append(badEdge.Edges, Edge{"f0", "ghost"})
	if err := badEdge.Validate(); err == nil {
		t.Error("edge to unknown function accepted")
	}
}

func TestTopoOrder(t *testing.T) {
	w := linWorkflow(1, 2, 1)
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "f0" || order[2] != "f2" {
		t.Errorf("order = %v", order)
	}
}

func TestSourcesSinks(t *testing.T) {
	w := linWorkflow(1, 2, 1)
	if src := w.Sources(); len(src) != 1 || src[0] != "f0" {
		t.Errorf("sources = %v", src)
	}
	if snk := w.Sinks(); len(snk) != 1 || snk[0] != "f2" {
		t.Errorf("sinks = %v", snk)
	}
	if w.TotalInvocations() != 4 {
		t.Errorf("total = %d", w.TotalInvocations())
	}
}

func TestGeneratePlanDisjoint(t *testing.T) {
	w := linWorkflow(2, 200, 1) // FINRA-like widths
	p, err := GeneratePlan(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Slots()) != 203 {
		t.Errorf("slots = %d", len(p.Slots()))
	}
	// Every slot's layout carves the range correctly.
	for _, id := range p.Slots() {
		l, ok := p.Slot(id)
		if !ok {
			t.Fatalf("missing slot %v", id)
		}
		if l.HeapStart <= l.DataStart || l.HeapEnd >= l.StackEnd {
			t.Errorf("layout %v malformed: %+v", id, l)
		}
	}
}

func TestPlanExceedsAddressSpace(t *testing.T) {
	for _, f := range []FunctionSpec{
		{Name: "f", Instances: 3000, MemBudget: 100 << 30},
		// next+budget wraps past 2^64: the bounds check must not.
		{Name: "f", Instances: 2, MemBudget: ^uint64(1<<20 - 1)},
	} {
		f.Handler = nopHandler
		w := &Workflow{Name: "huge", Functions: []*FunctionSpec{&f}}
		if _, err := GeneratePlan(w); err == nil {
			t.Errorf("plan of %d × %#x bytes accepted", f.Instances, f.MemBudget)
		}
	}
}

func TestPlanBudgetTooSmall(t *testing.T) {
	w := &Workflow{Name: "tiny", Functions: []*FunctionSpec{{
		Name: "f", Instances: 1, MemBudget: 1 << 20, Handler: nopHandler,
	}}}
	if _, err := GeneratePlan(w); err == nil {
		t.Error("budget smaller than fixed segments accepted")
	}
}

// Property (the §4.2 invariant): for arbitrary DAG widths, the generated
// plan's slots are pairwise disjoint and inside the planned region.
func TestPlanDisjointProperty(t *testing.T) {
	f := func(widths []uint8) bool {
		if len(widths) == 0 {
			return true
		}
		if len(widths) > 8 {
			widths = widths[:8]
		}
		var ws []int
		for _, w := range widths {
			ws = append(ws, int(w%50)+1)
		}
		p, err := GeneratePlan(linWorkflow(ws...))
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		for _, id := range p.Slots() {
			l, _ := p.Slot(id)
			if l.Start < PlanBase || l.End > PlanLimit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
