package platform

import (
	"fmt"
	"math/rand"
	"testing"

	"rmmap/internal/objrt"
)

// randomWorkflow builds a deterministic random layered DAG whose handlers
// do integer arithmetic over boxed lists: layer 0 produces seeded values,
// inner layers fold their inputs with instance-dependent mixing, the sink
// reports a single checksum. Any divergence between transfer modes —
// corrupted bytes, wrong pointer, missed input — changes the checksum.
func randomWorkflow(rng *rand.Rand) *Workflow {
	layers := 2 + rng.Intn(3) // 2..4 layers
	w := &Workflow{Name: "random"}
	var prev []string
	for l := 0; l < layers; l++ {
		width := 1 + rng.Intn(3)
		if l == layers-1 {
			width = 1 // single sink
		}
		var names []string
		for i := 0; i < width; i++ {
			name := fmt.Sprintf("l%df%d", l, i)
			names = append(names, name)
			layer, inst := l, i
			payload := 16 + rng.Intn(200)
			last := l == layers-1
			w.Functions = append(w.Functions, &FunctionSpec{
				Name: name, Instances: 1 + rng.Intn(2),
				Handler: func(ctx *Ctx) (objrt.Obj, error) {
					acc := int64(layer*1000003 + inst*7919 + ctx.Instance)
					for _, in := range ctx.Inputs {
						n, err := in.Len()
						if err != nil {
							return objrt.Obj{}, err
						}
						for j := 0; j < n; j++ {
							e, err := in.Index(j)
							if err != nil {
								return objrt.Obj{}, err
							}
							v, err := e.Int()
							if err != nil {
								return objrt.Obj{}, err
							}
							acc = acc*31 + v
						}
					}
					if last {
						ctx.Report(acc)
						return objrt.Obj{}, nil
					}
					vals := make([]int64, payload)
					for j := range vals {
						vals[j] = acc + int64(j)
					}
					return ctx.RT.NewIntList(vals)
				},
			})
		}
		if l > 0 {
			// Every node consumes a random non-empty subset of the
			// previous layer (at least its first node).
			for _, to := range names {
				w.Edges = append(w.Edges, Edge{From: prev[0], To: to})
				for _, from := range prev[1:] {
					if rng.Intn(2) == 0 {
						w.Edges = append(w.Edges, Edge{From: from, To: to})
					}
				}
			}
		}
		prev = names
	}
	return w
}

// shapedWorkflow builds one of three canonical DAG shapes — fan-out,
// fan-in, or diamond — with randomized instance counts, payload sizes and
// machine placements. Unlike randomWorkflow's layered graphs, these pick
// the shapes that stress the parallel engine hardest: wide same-frontier
// batches (fan-out), many-producer joins (fan-in), and reconvergent paths
// (diamond). Payloads mix object kinds (int lists, byte blobs, dicts) so a
// transfer bug in any representation shifts the checksum, and PinMachine
// forces a random subset of functions onto fixed machines so local and
// remote transfer paths are both exercised.
func shapedWorkflow(rng *rand.Rand, machines int) *Workflow {
	shape := []string{"fanout", "fanin", "diamond"}[rng.Intn(3)]
	w := &Workflow{Name: "shaped-" + shape}

	pin := func() *int {
		if rng.Intn(2) == 0 {
			return Pin(rng.Intn(machines))
		}
		return nil
	}
	// produce emits a dict {vals: intlist, blob: bytes} of random size.
	produce := func(name string, instances int) {
		nVals := 8 + rng.Intn(400)
		nBlob := 1 + rng.Intn(2048)
		w.Functions = append(w.Functions, &FunctionSpec{
			Name: name, Instances: instances, PinMachine: pin(),
			Handler: func(ctx *Ctx) (objrt.Obj, error) {
				base := int64(ctx.Instance + 1)
				vals := make([]int64, nVals)
				for j := range vals {
					vals[j] = base*1000003 + int64(j)
				}
				blob := make([]byte, nBlob)
				for j := range blob {
					blob[j] = byte(base + int64(j)*7)
				}
				lv, err := ctx.RT.NewIntList(vals)
				if err != nil {
					return objrt.Obj{}, err
				}
				bv, err := ctx.RT.NewBytes(blob)
				if err != nil {
					return objrt.Obj{}, err
				}
				kv, err := ctx.RT.NewStr("vals")
				if err != nil {
					return objrt.Obj{}, err
				}
				kb, err := ctx.RT.NewStr("blob")
				if err != nil {
					return objrt.Obj{}, err
				}
				return ctx.RT.NewDict([][2]objrt.Obj{{kv, lv}, {kb, bv}})
			},
		})
	}
	// fold sums every producer dict into an int list (or reports, if sink).
	fold := func(name string, instances int, sink bool) {
		w.Functions = append(w.Functions, &FunctionSpec{
			Name: name, Instances: instances, PinMachine: pin(),
			Handler: func(ctx *Ctx) (objrt.Obj, error) {
				acc := int64(ctx.Instance)
				for _, in := range ctx.Inputs {
					tag, err := in.Tag()
					if err != nil {
						return objrt.Obj{}, err
					}
					if tag == objrt.TDict {
						vals, ok, err := in.DictGet("vals")
						if err != nil || !ok {
							return objrt.Obj{}, fmt.Errorf("no vals: %v", err)
						}
						n, err := vals.Len()
						if err != nil {
							return objrt.Obj{}, err
						}
						for j := 0; j < n; j++ {
							e, err := vals.Index(j)
							if err != nil {
								return objrt.Obj{}, err
							}
							v, err := e.Int()
							if err != nil {
								return objrt.Obj{}, err
							}
							acc = acc*31 + v
						}
						blob, ok, err := in.DictGet("blob")
						if err != nil || !ok {
							return objrt.Obj{}, fmt.Errorf("no blob: %v", err)
						}
						b, err := blob.Bytes()
						if err != nil {
							return objrt.Obj{}, err
						}
						for _, c := range b {
							acc = acc*131 + int64(c)
						}
						continue
					}
					n, err := in.Len()
					if err != nil {
						return objrt.Obj{}, err
					}
					for j := 0; j < n; j++ {
						e, err := in.Index(j)
						if err != nil {
							return objrt.Obj{}, err
						}
						v, err := e.Int()
						if err != nil {
							return objrt.Obj{}, err
						}
						acc = acc*31 + v
					}
				}
				if sink {
					ctx.Report(acc)
					return objrt.Obj{}, nil
				}
				return ctx.RT.NewIntList([]int64{acc, acc ^ 0x5bd1e995})
			},
		})
	}

	switch shape {
	case "fanout":
		// src → wide middle → sink.
		produce("src", 1)
		fold("mid", 2+rng.Intn(8), false)
		fold("sink", 1, true)
		w.Edges = []Edge{{From: "src", To: "mid"}, {From: "mid", To: "sink"}}
	case "fanin":
		// Several independent producers join at one consumer.
		k := 2 + rng.Intn(4)
		for i := 0; i < k; i++ {
			produce(fmt.Sprintf("src%d", i), 1+rng.Intn(3))
			w.Edges = append(w.Edges, Edge{From: fmt.Sprintf("src%d", i), To: "sink"})
		}
		fold("sink", 1, true)
	default: // diamond
		produce("src", 1)
		fold("left", 1+rng.Intn(4), false)
		fold("right", 1+rng.Intn(4), false)
		fold("sink", 1, true)
		w.Edges = []Edge{
			{From: "src", To: "left"}, {From: "src", To: "right"},
			{From: "left", To: "sink"}, {From: "right", To: "sink"},
		}
	}
	return w
}

// TestRandomShapedDAGsParallelEngine drives the shaped-DAG generator
// through the parallel engine: for each seed, every transfer mode must
// produce the messaging baseline's checksum at Workers=8, and the parallel
// result must equal the sequential (Workers=1) result for the same mode.
// Running under -race (CI does) also makes any unsynchronized engine state
// visible.
func TestRandomShapedDAGsParallelEngine(t *testing.T) {
	const machines = 4
	for seed := int64(100); seed < 112; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run := func(label string, mode Mode, workers int) any {
				rng := rand.New(rand.NewSource(seed))
				wf := shapedWorkflow(rng, machines)
				e, err := NewEngine(wf, mode, Options{Workers: workers},
					ClusterConfig{Machines: machines, Pods: 12})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				res, err := e.Run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if e.LiveRegistrations() != 0 {
					t.Errorf("%s: leaked registrations", label)
				}
				return res.Output
			}
			want := run("messaging/w1", ModeMessaging, 1)
			for _, mode := range AllModes() {
				got := run(mode.String()+"/w8", mode, 8)
				if got != want {
					t.Errorf("%v at workers=8 computed %v, messaging computed %v", mode, got, want)
				}
				seq := run(mode.String()+"/w1", mode, 1)
				if seq != got {
					t.Errorf("%v: workers=1 computed %v, workers=8 computed %v", mode, seq, got)
				}
			}
		})
	}
}

// TestRandomDAGsAgreeAcrossModes is the repository's strongest end-to-end
// property: for arbitrary workflow shapes, all five transfer mechanisms
// (and the multi-hop forwarding option) must compute the identical
// checksum — state transfer may differ in cost but never in meaning.
func TestRandomDAGsAgreeAcrossModes(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			results := map[string]any{}
			run := func(label string, mode Mode, opts Options) {
				rng := rand.New(rand.NewSource(seed))
				wf := randomWorkflow(rng)
				e, err := NewEngine(wf, mode, opts, ClusterConfig{Machines: 4, Pods: 10})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				res, err := e.Run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if e.LiveRegistrations() != 0 {
					t.Errorf("%s: leaked registrations", label)
				}
				results[label] = res.Output
			}
			for _, mode := range AllModes() {
				run(mode.String(), mode, Options{})
			}
			run("rmmap+forward", ModeRMMAP, Options{ForwardRemote: true})

			want := results["messaging"]
			if want == nil {
				t.Fatal("no baseline result")
			}
			for label, got := range results {
				if got != want {
					t.Errorf("%s computed %v, messaging computed %v", label, got, want)
				}
			}
		})
	}
}
