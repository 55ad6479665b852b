// Specfile example: the developer-facing deployment path of §4.2. A
// workflow arrives as a declarative JSON spec (what you would upload to
// the platform), handlers are bound through a registry, the platform
// generates the static address plan, persists it alongside the workflow,
// and executes requests against the restored plan.
//
// Run: go run ./examples/specfile
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"

	"rmmap/internal/objrt"
	"rmmap/internal/platform"
)

const specJSON = `{
  "name": "etl",
  "functions": [
    {"name": "extract",   "instances": 1, "handler": "extract"},
    {"name": "transform", "instances": 4, "mem_budget_mb": 2048, "handler": "transform"},
    {"name": "load",      "instances": 1, "handler": "load"}
  ],
  "edges": [["extract", "transform"], ["transform", "load"]]
}`

func registry() platform.HandlerRegistry {
	return platform.HandlerRegistry{
		"extract": func(ctx *platform.Ctx) (objrt.Obj, error) {
			rows := make([]int64, 4000)
			for i := range rows {
				rows[i] = int64(i * i)
			}
			return ctx.RT.NewIntList(rows)
		},
		"transform": func(ctx *platform.Ctx) (objrt.Obj, error) {
			in := ctx.Inputs[0]
			n, err := in.Len()
			if err != nil {
				return objrt.Obj{}, err
			}
			// Each instance folds its quarter of the rows.
			lo, hi := ctx.Instance*n/ctx.Instances, (ctx.Instance+1)*n/ctx.Instances
			sum := int64(0)
			for i := lo; i < hi; i++ {
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
			return ctx.RT.NewIntList([]int64{sum})
		},
		"load": func(ctx *platform.Ctx) (objrt.Obj, error) {
			total := int64(0)
			for _, in := range ctx.Inputs {
				e, err := in.Index(0)
				if err != nil {
					return objrt.Obj{}, err
				}
				v, err := e.Int()
				if err != nil {
					return objrt.Obj{}, err
				}
				total += v
			}
			ctx.Report(total)
			return objrt.Obj{}, nil
		},
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. Parse the uploaded spec and bind handlers.
	spec, err := platform.ParseSpec([]byte(specJSON))
	if err != nil {
		return err
	}
	wf, err := spec.Build(registry())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "uploaded workflow %q: %d function types\n", wf.Name, len(wf.Functions))

	// 2. Generate the static VM plan and persist it with the workflow.
	plan, err := platform.GeneratePlan(wf)
	if err != nil {
		return err
	}
	stored, err := json.Marshal(plan)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "plan: %d disjoint slots, %d bytes stored alongside the workflow\n",
		len(plan.Slots()), len(stored))

	// 3. Restore the plan (a later execution) — corruption is rejected at
	// load time by the disjointness check.
	var restored platform.Plan
	if err := json.Unmarshal(stored, &restored); err != nil {
		return err
	}
	fmt.Fprintln(w, "restored plan validates:", restored.Validate() == nil)

	// 4. Execute under RMMAP.
	engine, err := platform.NewEngine(wf, platform.ModeRMMAPPrefetch, platform.Options{},
		platform.DefaultClusterConfig())
	if err != nil {
		return err
	}
	res, err := engine.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "request completed in %v, sum of squares = %v\n", res.Latency, res.Output)
	return nil
}
