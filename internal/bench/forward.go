package bench

import (
	"rmmap/internal/objrt"
	"rmmap/internal/platform"
)

func init() {
	register(Experiment{
		ID:    "abl-forward",
		Title: "Extension: multi-hop remote map vs copy-based cascading (§4.4 future work)",
		Expect: "forwarding the registration through a passthrough stage " +
			"saves the deep copy and re-registration; copy-based cascade " +
			"remains correct but slower",
		Run: runAblForward,
	})
}

// cascadeWorkflow is A→B→C where B forwards A's state untouched.
func cascadeWorkflow(n int) *platform.Workflow {
	return &platform.Workflow{
		Name: "cascade",
		Functions: []*platform.FunctionSpec{
			{Name: "A", Instances: 1, Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
				return ctx.RT.NewIntList(make([]int64, n))
			}},
			{Name: "B", Instances: 1, Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
				return ctx.Inputs[0], nil
			}},
			{Name: "C", Instances: 1, Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
				cnt, err := ctx.Inputs[0].Len()
				if err != nil {
					return objrt.Obj{}, err
				}
				ctx.Report(cnt)
				return objrt.Obj{}, nil
			}},
		},
		Edges: []platform.Edge{{From: "A", To: "B"}, {From: "B", To: "C"}},
	}
}

func runAblForward(scale float64) (Result, error) {
	t := &Table{Header: []string{"entries", "cascade", "latency", "total work", "B compute (copy)"}}
	for _, n := range []int{10000, 100000} {
		n = scaleInt(n, scale)
		for _, forward := range []bool{false, true} {
			e, err := platform.NewEngine(cascadeWorkflow(n), platform.ModeRMMAPPrefetch,
				platform.Options{ForwardRemote: forward}, platform.ClusterConfig{Machines: 3, Pods: 6})
			if err != nil {
				return nil, err
			}
			res, err := e.Run()
			if err != nil {
				return nil, err
			}
			name := "copy (deployed design)"
			if forward {
				name = "forward (multi-hop map)"
			}
			t.add(n, name, res.Latency, res.Meter.Total(),
				res.PerFunction["B"].Get(computeCat()))
		}
	}
	return Result{t}, nil
}
