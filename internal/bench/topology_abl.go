package bench

import (
	"fmt"
	"io"

	"rmmap/internal/platform"
	"rmmap/internal/platformbuilder"
	"rmmap/internal/simtime"
)

// Topology selects the cluster shape the Fig-14 JSON grid and the fan-out
// ablation run on: "" (or "flat") is the classic flat cluster, anything
// else is a platformbuilder recipe name or topology JSON path. rmmap bench
// -topology sets it. abl-topology ignores it — that experiment sweeps
// shapes itself.
var Topology = ""

// topoCluster builds a fresh cluster of the given machine count honoring
// the Topology selection, returning the shape label recorded in reports.
// A fresh cluster per call means fresh link-occupancy state, so repeated
// collections stay byte-identical.
func topoCluster(machines int) (*platform.Cluster, string, error) {
	if Topology == "" || Topology == "flat" {
		return platform.NewCluster(machines, simtime.DefaultCostModel()), "flat", nil
	}
	b, err := platformbuilder.Resolve(Topology, machines)
	if err != nil {
		return nil, "", err
	}
	cl, err := b.Build()
	if err != nil {
		return nil, "", err
	}
	return cl, b.Name(), nil
}

// TopologyRow is one (topology, placement) cell of the topology-cliff
// section of BENCH_fig14.json: the datapath cost of the same pinned 1→8
// fan-out when the consumer machine sits next to the producer versus
// across the spine.
type TopologyRow struct {
	Topology  string `json:"topology"`
	Placement string `json:"placement"`
	LatencyNs int64  `json:"latency_ns"`
	// DatapathNs is the state-transfer cost the placement controls:
	// fault + readahead + tor + spine + linkwait.
	DatapathNs   int64 `json:"datapath_ns"`
	ToRNs        int64 `json:"tor_ns"`
	SpineNs      int64 `json:"spine_ns"`
	LinkWaitNs   int64 `json:"link_wait_ns"`
	CrossRackOps int64 `json:"cross_rack_ops"`
}

// topologyLegs is the abl-topology grid: the same fan-out under each
// cluster shape and consumer placement. consumer < 0 leaves consumers
// unpinned so the engine's placement policy (first-fit, or rack-local
// with rackLocal set) decides.
var topologyLegs = []struct {
	recipe    string
	machines  int
	producer  int
	consumer  int
	placement string
	rackLocal bool
}{
	{"flat", 2, 0, 1, "remote", false},
	{"two-rack", 4, 0, 1, "intra-rack", false},
	{"two-rack", 4, 0, 2, "cross-rack", false},
	{"spine-leaf", 8, 0, 1, "intra-rack", false},
	{"spine-leaf", 8, 0, 2, "cross-rack", false},
	{"spine-leaf", 8, 0, -1, "spread", false},
	{"spine-leaf", 8, 0, -1, "rack-local", true},
}

// CollectTopology runs the topology-cliff grid: a pinned 1→8 fan-out on
// each recipe, with the consumers' machine placed intra- or cross-rack,
// plus the unpinned placement-policy comparison (first-fit spread versus
// Options.RackLocal). Everything is virtual time, so rows are
// byte-identical at any worker count.
func CollectTopology(scale float64) ([]TopologyRow, error) {
	const width = 8
	elems := scaleInt(65536, scale)
	rows := make([]TopologyRow, 0, len(topologyLegs))
	for _, leg := range topologyLegs {
		b, err := platformbuilder.Recipe(leg.recipe, leg.machines)
		if err != nil {
			return nil, err
		}
		cl, err := b.Build()
		if err != nil {
			return nil, err
		}
		opts := benchOptions()
		opts.RackLocal = leg.rackLocal
		e, err := platform.NewEngineOn(cl, topoFanout(leg.producer, leg.consumer, width, elems),
			platform.ModeRMMAP, opts, 4*leg.machines)
		if err != nil {
			cl.Close()
			return nil, err
		}
		res, err := e.Run()
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("abl-topology %s/%s: %w", leg.recipe, leg.placement, err)
		}
		get := func(c simtime.Category) int64 { return int64(res.Meter.Get(c)) }
		row := TopologyRow{
			Topology:   leg.recipe,
			Placement:  leg.placement,
			LatencyNs:  int64(res.Latency),
			ToRNs:      get(simtime.CatToR),
			SpineNs:    get(simtime.CatSpine),
			LinkWaitNs: get(simtime.CatLinkWait),
		}
		row.DatapathNs = get(simtime.CatFault) + get(simtime.CatReadahead) +
			row.ToRNs + row.SpineNs + row.LinkWaitNs
		if cl.Topo != nil {
			row.CrossRackOps = cl.Topo.CrossRackOps()
		}
		cl.Close()
		rows = append(rows, row)
	}
	return rows, nil
}

// TopologyCliff extracts the headline number from the grid: the
// spine-leaf cross-rack datapath cost over the intra-rack one.
func TopologyCliff(rows []TopologyRow) float64 {
	var intra, cross int64
	for _, r := range rows {
		if r.Topology != "spine-leaf" {
			continue
		}
		switch r.Placement {
		case "intra-rack":
			intra = r.DatapathNs
		case "cross-rack":
			cross = r.DatapathNs
		}
	}
	if intra == 0 {
		return 0
	}
	return float64(cross) / float64(intra)
}

func runAblTopology(w io.Writer, scale float64) error {
	rows, err := CollectTopology(scale)
	if err != nil {
		return err
	}
	t := newTable(w, "topology/placement", "latency", "datapath", "tor", "spine", "linkwait", "cross-ops")
	for _, r := range rows {
		t.row(r.Topology+"/"+r.Placement,
			simtime.Duration(r.LatencyNs), simtime.Duration(r.DatapathNs),
			simtime.Duration(r.ToRNs), simtime.Duration(r.SpineNs),
			simtime.Duration(r.LinkWaitNs), r.CrossRackOps)
	}
	t.flush()
	fmt.Fprintf(w, "spine-leaf cross/intra datapath cliff: %.2fx\n", TopologyCliff(rows))
	return nil
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
