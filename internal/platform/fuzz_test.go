package platform

import (
	"testing"
)

// FuzzParseSpec drives the public spec path, ParseSpec → Build →
// GeneratePlan, on arbitrary JSON. None of it may panic, and any plan that
// comes back must hold the §4.2 invariant: Validate passes and every slot
// is a non-empty range inside [PlanBase, PlanLimit).
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(exampleSpec))
	f.Add([]byte(`{"name":"w","functions":[{"name":"a","instances":2,"mem_budget_mb":-1,"handler":"produce"}]}`))
	f.Add([]byte(`{"name":"w","functions":[{"name":"a","instances":1,"mem_budget_mb":17592186044415,"handler":"produce"}]}`))
	f.Add([]byte(`{"name":"w","functions":[{"name":"a","instances":3,"mem_budget_mb":29,"handler":"produce"},` +
		`{"name":"b","instances":1,"handler":"sink"}],"edges":[["a","b"]]}`))
	reg := testRegistry()
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		w, err := spec.Build(reg)
		if err != nil {
			return
		}
		// A valid plan may hold millions of slots; the invariant does
		// not depend on their number, so keep each input cheap.
		total := 0
		for _, fn := range w.Functions {
			total += fn.Instances
		}
		if total > 1<<12 {
			return
		}
		p, err := GeneratePlan(w)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("GeneratePlan returned an invalid plan: %v", err)
		}
		for _, id := range p.Slots() {
			l, _ := p.Slot(id)
			if l.Start < PlanBase || l.End <= l.Start || l.End > PlanLimit {
				t.Fatalf("slot %v = [%#x, %#x) outside [%#x, %#x)", id, l.Start, l.End, PlanBase, PlanLimit)
			}
		}
	})
}
