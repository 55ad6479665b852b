package platform

import (
	"encoding/json"
	"fmt"

	"rmmap/internal/objrt"
)

// Workflow specs are what developers upload to the platform (§4.2): a
// declarative DAG that the planner turns into a stored address-space plan.
// Handlers are code, not data — a spec references them by name and Build
// binds them through a HandlerRegistry.

// Spec is the JSON-serializable workflow description.
type Spec struct {
	Name      string         `json:"name"`
	Functions []SpecFunction `json:"functions"`
	Edges     [][2]string    `json:"edges"`
}

// SpecFunction describes one function type.
type SpecFunction struct {
	Name        string `json:"name"`
	Instances   int    `json:"instances"`
	MemBudgetMB int    `json:"mem_budget_mb,omitempty"`
	Lang        string `json:"lang,omitempty"` // "python" (default) or "java"
	Untrusted   bool   `json:"untrusted,omitempty"`
	Handler     string `json:"handler"`
}

// HandlerRegistry binds handler names to implementations.
type HandlerRegistry map[string]Handler

// ParseSpec decodes a workflow spec.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("platform: bad workflow spec: %w", err)
	}
	return s, nil
}

// Marshal encodes the spec as JSON.
func (s Spec) Marshal() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// Build resolves the spec into a runnable workflow and validates it.
func (s Spec) Build(reg HandlerRegistry) (*Workflow, error) {
	w := &Workflow{Name: s.Name}
	for _, f := range s.Functions {
		h, ok := reg[f.Handler]
		if !ok {
			return nil, fmt.Errorf("platform: spec references unknown handler %q", f.Handler)
		}
		if f.MemBudgetMB < 0 || uint64(f.MemBudgetMB) > PlanLimit>>20 {
			return nil, fmt.Errorf("platform: mem_budget_mb %d for %q outside [0, %d]", f.MemBudgetMB, f.Name, PlanLimit>>20)
		}
		lang := objrt.LangPython
		switch f.Lang {
		case "", "python":
		case "java":
			lang = objrt.LangJava
		default:
			return nil, fmt.Errorf("platform: unknown lang %q for %q", f.Lang, f.Name)
		}
		w.Functions = append(w.Functions, &FunctionSpec{
			Name:      f.Name,
			Instances: f.Instances,
			MemBudget: uint64(f.MemBudgetMB) << 20,
			Lang:      lang,
			Untrusted: f.Untrusted,
			Handler:   h,
		})
	}
	for _, e := range s.Edges {
		w.Edges = append(w.Edges, Edge{From: e[0], To: e[1]})
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// --- plan persistence (§4.2: "store it together with the workflow") ---

type planJSON struct {
	Workflow string         `json:"workflow"`
	Slots    []planSlotJSON `json:"slots"`
}

type planSlotJSON struct {
	Function string `json:"function"`
	Instance int    `json:"instance"`
	Start    uint64 `json:"start"`
	End      uint64 `json:"end"`
}

// MarshalJSON persists the plan (slot ranges; layouts are recomputed).
func (p *Plan) MarshalJSON() ([]byte, error) {
	out := planJSON{Workflow: p.Workflow}
	for _, id := range p.order {
		l := p.slots[id]
		out.Slots = append(out.Slots, planSlotJSON{
			Function: id.Function, Instance: id.Instance,
			Start: l.Range.Start, End: l.Range.End,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores a persisted plan and re-validates disjointness —
// a corrupted plan must never reach containers.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var in planJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("platform: bad plan: %w", err)
	}
	p.Workflow = in.Workflow
	p.slots = make(map[SlotID]Layout, len(in.Slots))
	p.order = nil
	for _, s := range in.Slots {
		id := SlotID{s.Function, s.Instance}
		if _, dup := p.slots[id]; dup {
			return fmt.Errorf("platform: duplicate slot %v in stored plan", id)
		}
		p.slots[id] = layoutFor(Range{s.Start, s.End})
		p.order = append(p.order, id)
	}
	return p.Validate()
}
