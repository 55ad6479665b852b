// Cascade example: the §4.4 cascading-state-transfer problem and both of
// its solutions. In A→B→C, function B passes A's state through unchanged.
// The deployed design deep-copies A's state onto B's heap before serving
// it to C; the multi-hop extension (the paper's future-work sketch,
// implemented here) forwards A's registration to C instead, so C maps A
// directly and B does no copy at all.
//
// Run: go run ./examples/cascade
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"rmmap/internal/objrt"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

func cascade(n int) *platform.Workflow {
	return &platform.Workflow{
		Name: "cascade",
		Functions: []*platform.FunctionSpec{
			{Name: "A", Instances: 1, Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = int64(i)
				}
				return ctx.RT.NewIntList(vals)
			}},
			{Name: "B", Instances: 1, Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
				// Pure passthrough: B forwards A's state to C.
				return ctx.Inputs[0], nil
			}},
			{Name: "C", Instances: 1, Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
				in := ctx.Inputs[0]
				cnt, err := in.Len()
				if err != nil {
					return objrt.Obj{}, err
				}
				sum := int64(0)
				for i := 0; i < cnt; i++ {
					e, err := in.Index(i)
					if err != nil {
						return objrt.Obj{}, err
					}
					v, err := e.Int()
					if err != nil {
						return objrt.Obj{}, err
					}
					sum += v
				}
				ctx.Report(sum)
				return objrt.Obj{}, nil
			}},
		},
		Edges: []platform.Edge{{From: "A", To: "B"}, {From: "B", To: "C"}},
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const n = 100000
	fmt.Fprintf(w, "A→B→C with a %d-int state, B is a pure passthrough\n\n", n)
	for _, forward := range []bool{false, true} {
		engine, err := platform.NewEngine(cascade(n), platform.ModeRMMAP,
			platform.Options{ForwardRemote: forward}, platform.DefaultClusterConfig())
		if err != nil {
			return err
		}
		res, err := engine.Run()
		if err != nil {
			return err
		}
		name := "copy-based cascade (deployed design, §4.4)"
		if forward {
			name = "multi-hop forwarding (future work, implemented)"
		}
		fmt.Fprintf(w, "%s\n", name)
		fmt.Fprintf(w, "  latency %v  B's copy compute: %v  B registered: %v\n",
			res.Latency,
			res.PerFunction["B"].Get(simtime.CatCompute),
			res.PerFunction["B"].Get(simtime.CatRegister))
		fmt.Fprintf(w, "  C's sum: %v (identical either way)\n\n", res.Output)
	}
	return nil
}
