package platform

import (
	"encoding/json"
	"testing"

	"rmmap/internal/objrt"
)

const exampleSpec = `{
  "name": "etl",
  "functions": [
    {"name": "extract", "instances": 1, "handler": "produce"},
    {"name": "transform", "instances": 4, "mem_budget_mb": 2048, "handler": "work"},
    {"name": "load", "instances": 1, "lang": "java", "handler": "sink"}
  ],
  "edges": [["extract", "transform"], ["transform", "load"]]
}`

func testRegistry() HandlerRegistry {
	return HandlerRegistry{
		"produce": func(ctx *Ctx) (objrt.Obj, error) { return ctx.RT.NewIntList(make([]int64, 100)) },
		"work": func(ctx *Ctx) (objrt.Obj, error) {
			n, err := ctx.Inputs[0].Len()
			if err != nil {
				return objrt.Obj{}, err
			}
			return ctx.RT.NewInt(int64(n + ctx.Instance))
		},
		"sink": func(ctx *Ctx) (objrt.Obj, error) {
			sum := int64(0)
			for _, in := range ctx.Inputs {
				v, err := in.Int()
				if err != nil {
					return objrt.Obj{}, err
				}
				sum += v
			}
			ctx.Report(sum)
			return objrt.Obj{}, nil
		},
	}
}

func TestSpecParseBuildRun(t *testing.T) {
	spec, err := ParseSpec([]byte(exampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	wf, err := spec.Build(testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if wf.Function("transform").MemBudget != 2048<<20 {
		t.Errorf("budget = %d", wf.Function("transform").MemBudget)
	}
	if wf.Function("load").Lang != objrt.LangJava {
		t.Error("lang not applied")
	}
	e, err := NewEngine(wf, ModeRMMAP, Options{}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 4 workers each report 100+instance; sum = 400 + 0+1+2+3.
	if res.Output.(int64) != 406 {
		t.Errorf("output = %v, want 406", res.Output)
	}
}

func TestSpecMarshalRoundtrip(t *testing.T) {
	spec, _ := ParseSpec([]byte(exampleSpec))
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Functions) != 3 || again.Functions[1].MemBudgetMB != 2048 {
		t.Errorf("roundtrip lost data: %+v", again)
	}
}

func TestSpecErrors(t *testing.T) {
	if _, err := ParseSpec([]byte("{broken")); err == nil {
		t.Error("bad JSON accepted")
	}
	spec, _ := ParseSpec([]byte(exampleSpec))
	if _, err := spec.Build(HandlerRegistry{}); err == nil {
		t.Error("unknown handler accepted")
	}
	spec.Functions[0].Lang = "cobol"
	if _, err := spec.Build(testRegistry()); err == nil {
		t.Error("unknown lang accepted")
	}
	spec.Functions[0].Lang = ""
	// A negative or oversized budget used to wrap the planner's bounds
	// check into a slot with End < Start.
	for _, mb := range []int{-1, 17592186044415} {
		spec.Functions[0].MemBudgetMB = mb
		if _, err := spec.Build(testRegistry()); err == nil {
			t.Errorf("mem_budget_mb %d accepted", mb)
		}
	}
	spec.Functions[0].MemBudgetMB = 0
	spec.Edges = append(spec.Edges, [2]string{"load", "extract"}) // cycle
	if _, err := spec.Build(testRegistry()); err == nil {
		t.Error("cyclic spec accepted")
	}
}

func TestPlanJSONRoundtrip(t *testing.T) {
	wf := linWorkflow(2, 5, 1)
	p, err := GeneratePlan(wf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Slots()) != len(p.Slots()) {
		t.Fatalf("slots = %d, want %d", len(back.Slots()), len(p.Slots()))
	}
	for _, id := range p.Slots() {
		a, _ := p.Slot(id)
		b, ok := back.Slot(id)
		if !ok || a.Range != b.Range || a.HeapStart != b.HeapStart {
			t.Errorf("slot %v differs: %+v vs %+v", id, a, b)
		}
	}
}

func TestPlanJSONRejectsCorruption(t *testing.T) {
	wf := linWorkflow(1, 2)
	p, _ := GeneratePlan(wf)
	data, _ := json.Marshal(p)
	// Corrupt: force two slots to overlap.
	var raw map[string]any
	_ = json.Unmarshal(data, &raw)
	slots := raw["slots"].([]any)
	s0 := slots[0].(map[string]any)
	s1 := slots[1].(map[string]any)
	s1["start"] = s0["start"]
	s1["end"] = s0["end"]
	bad, _ := json.Marshal(raw)
	var back Plan
	if err := json.Unmarshal(bad, &back); err == nil {
		t.Error("overlapping stored plan accepted")
	}
}
