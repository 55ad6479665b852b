package bench

import (
	"fmt"

	"rmmap/internal/platform"
	"rmmap/internal/platformbuilder"
	"rmmap/internal/simtime"
)

// Topology selects the cluster shape the Fig-14 grid and the fan-out
// ablation run on: "" (or "flat") is the classic flat cluster, anything
// else is a platformbuilder recipe name or topology JSON path. rmmap bench
// -topology sets it. abl-topology ignores it — that experiment sweeps
// shapes itself.
var Topology = ""

// topoCluster builds a fresh cluster of the given machine count honoring
// the Topology selection. A fresh cluster per call means fresh
// link-occupancy state, so repeated runs stay byte-identical.
func topoCluster(machines int) (*platform.Cluster, error) {
	if Topology == "" || Topology == "flat" {
		return platform.NewCluster(machines, simtime.DefaultCostModel()), nil
	}
	b, err := platformbuilder.Resolve(Topology, machines)
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// topologyLeg is one cell of the abl-topology grid: the fan-out under one
// cluster shape and consumer placement. consumer < 0 leaves consumers
// unpinned so the engine's placement policy (first-fit, or rack-local
// with rackLocal set) decides.
type topologyLeg struct {
	recipe    string
	machines  int
	producer  int
	consumer  int
	placement string
	rackLocal bool
}

var topologyLegs = []topologyLeg{
	{"flat", 2, 0, 1, "remote", false},
	{"two-rack", 4, 0, 1, "intra-rack", false},
	{"two-rack", 4, 0, 2, "cross-rack", false},
	{"spine-leaf", 8, 0, 1, "intra-rack", false},
	{"spine-leaf", 8, 0, 2, "cross-rack", false},
	{"spine-leaf", 8, 0, -1, "spread", false},
	{"spine-leaf", 8, 0, -1, "rack-local", true},
}

// runAblTopology runs the topology-cliff grid: a pinned 1→8 fan-out on
// each recipe, with the consumers' machine placed intra- or cross-rack,
// plus the unpinned placement-policy comparison (first-fit spread versus
// Options.RackLocal). Its note is the headline number: the spine-leaf
// cross-rack datapath cost over the intra-rack one.
func runAblTopology(scale float64) (Result, error) {
	elems := scaleInt(65536, scale)
	t := &Table{Header: []string{"topology/placement", "latency", "datapath", "tor", "spine", "linkwait", "cross-ops"}}
	var intra, cross simtime.Duration
	for _, leg := range topologyLegs {
		res, crossOps, err := leg.run(elems)
		if err != nil {
			return nil, fmt.Errorf("abl-topology %s/%s: %w", leg.recipe, leg.placement, err)
		}
		get := res.Meter.Get
		// The datapath is the state-transfer cost the placement controls.
		datapath := get(simtime.CatFault) + get(simtime.CatReadahead) +
			get(simtime.CatToR) + get(simtime.CatSpine) + get(simtime.CatLinkWait)
		t.add(leg.recipe+"/"+leg.placement, res.Latency, datapath,
			get(simtime.CatToR), get(simtime.CatSpine), get(simtime.CatLinkWait), crossOps)
		if leg.recipe == "spine-leaf" {
			switch leg.placement {
			case "intra-rack":
				intra = datapath
			case "cross-rack":
				cross = datapath
			}
		}
	}
	t.Note = []string{"spine-leaf cross/intra datapath cliff: " + speedup(float64(cross), float64(intra)).String()}
	return Result{t}, nil
}

// run executes the leg's 1→8 fan-out on a fresh recipe cluster,
// returning the run and the cluster's cross-rack operation count.
func (leg topologyLeg) run(elems int) (platform.RunResult, int64, error) {
	b, err := platformbuilder.Recipe(leg.recipe, leg.machines)
	if err != nil {
		return platform.RunResult{}, 0, err
	}
	cl, err := b.Build()
	if err != nil {
		return platform.RunResult{}, 0, err
	}
	defer cl.Close()
	opts := benchOptions()
	opts.RackLocal = leg.rackLocal
	e, err := platform.NewEngineOn(cl, topoFanout(leg.producer, leg.consumer, 8, elems),
		platform.ModeRMMAP, opts, 4*leg.machines)
	if err != nil {
		return platform.RunResult{}, 0, err
	}
	res, err := e.Run()
	var crossOps int64
	if cl.Topo != nil {
		crossOps = cl.Topo.CrossRackOps()
	}
	return res, crossOps, err
}

func init() {
	register(Experiment{
		ID:    "abl-topology",
		Title: "Ablation: intra- vs cross-rack placement of a pinned 1→8 fan-out (multi-rack topologies)",
		Expect: "cross-rack placement pays ToR+spine hops and spine serialization: ≥2x the intra-rack " +
			"datapath cost on spine-leaf; rack-local placement recovers it (cross-rack ops drop to ~0)",
		Run: runAblTopology,
	})
}
