package bench

import (
	"encoding/json"
	"io"

	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

// Fig14Row is one (workflow, mode) cell of the machine-readable Fig 14
// report: end-to-end latency plus the fabric and remote-page-cache
// counters behind it.
type Fig14Row struct {
	Workflow string `json:"workflow"`
	Mode     string `json:"mode"`
	// Topology is the cluster shape the cell ran on: "flat" for the classic
	// single-rack cluster, otherwise the recipe or topology-file name
	// selected with rmmap bench -topology.
	Topology            string  `json:"topology"`
	LatencyNs           int64   `json:"latency_ns"`
	FabricOneSidedReads int     `json:"fabric_one_sided_reads"`
	FabricBatches       int     `json:"fabric_doorbell_batches"`
	FabricBatchPages    int     `json:"fabric_batch_pages"`
	FabricBytesRead     int64   `json:"fabric_bytes_read"`
	CacheHits           int64   `json:"cache_hits"`
	CacheMisses         int64   `json:"cache_misses"`
	CacheHitRate        float64 `json:"cache_hit_rate"`
	ReadaheadPages      int64   `json:"readahead_pages"`
	// BreakdownNs is the run's total virtual time per simtime category
	// (compute, serialize, fault, …) — the per-category cost attribution
	// behind the latency number. Keys are canonical category names;
	// encoding/json sorts them, so output is deterministic.
	BreakdownNs map[string]int64 `json:"simtime_breakdown_ns"`
}

// Fig14Report is what `rmmap bench -json` writes to BENCH_fig14.json.
// Failover is the abl-failover recovery comparison (failover vs.
// re-execution vs. degradation) over the same workflows.
type Fig14Report struct {
	Scale    float64       `json:"scale"`
	Rows     []Fig14Row    `json:"rows"`
	Failover []FailoverRow `json:"failover,omitempty"`
	// Topology is the topology-cliff section: the same pinned fan-out
	// placed intra- versus cross-rack on each recipe (abl-topology).
	Topology []TopologyRow `json:"topology_cliff,omitempty"`
}

// CollectFig14 reruns the Fig 14 grid (every evaluated workflow × every
// transfer mode) on fresh clusters, capturing fabric and cache counters
// alongside latency.
func CollectFig14(scale float64) (Fig14Report, error) {
	rep := Fig14Report{Scale: scale}
	cfg := benchCluster()
	for _, wfb := range wfBuilders(scale) {
		for _, mode := range platform.AllModes() {
			cl, topoName, err := topoCluster(cfg.Machines)
			if err != nil {
				return rep, err
			}
			e, err := platform.NewEngineOn(cl, wfb.Build(), mode, benchOptions(), cfg.Pods)
			if err != nil {
				cl.Close()
				return rep, err
			}
			res, err := e.Run()
			if err != nil {
				cl.Close()
				return rep, err
			}
			reads, batches, _, bytesRead := cl.Fabric.Stats()
			breakdown := make(map[string]int64)
			res.Meter.Each(func(c simtime.Category, d simtime.Duration) {
				breakdown[c.String()] = int64(d)
			})
			rep.Rows = append(rep.Rows, Fig14Row{
				Workflow:            wfb.Name,
				Mode:                mode.String(),
				Topology:            topoName,
				LatencyNs:           int64(res.Latency),
				FabricOneSidedReads: reads,
				FabricBatches:       batches,
				FabricBatchPages:    cl.Fabric.BatchPages(),
				FabricBytesRead:     bytesRead,
				CacheHits:           res.Cache.Hits,
				CacheMisses:         res.Cache.Misses,
				CacheHitRate:        res.Cache.HitRate(),
				ReadaheadPages:      res.Cache.ReadaheadPages,
				BreakdownNs:         breakdown,
			})
			cl.Close()
		}
	}
	rep.Failover = CollectFailover(scale)
	topoRows, err := CollectTopology(scale)
	if err != nil {
		return rep, err
	}
	rep.Topology = topoRows
	return rep, nil
}

// WriteFig14JSON collects the Fig 14 grid and writes it as indented JSON.
func WriteFig14JSON(w io.Writer, scale float64) error {
	rep, err := CollectFig14(scale)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
