package bench

import (
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
	"rmmap/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "abl-compress",
		Title: "Ablation: DEFLATE on the messaging critical path (§6)",
		Expect: "compression shrinks wire bytes but its compute sits on the " +
			"critical path — E2E gets worse, matching the paper's decision " +
			"to leave compression out",
		Run: runAblCompress,
	})
}

func runAblCompress(scale float64) (Result, error) {
	cfg := workloads.DefaultWordCount()
	cfg.BookBytes = scaleInt(cfg.BookBytes, scale)
	t := &Table{Header: []string{"variant", "latency", "ser+des (incl. codec)", "network"}}
	for _, compress := range []bool{false, true} {
		e, err := platform.NewEngine(workloads.WordCount(cfg), platform.ModeMessaging,
			platform.Options{Compress: compress}, benchCluster())
		if err != nil {
			return nil, err
		}
		res, err := e.Run()
		if err != nil {
			return nil, err
		}
		name := "plain cloudevents"
		if compress {
			name = "deflate + cloudevents"
		}
		t.add(name, res.Latency, res.Meter.SerTotal(), res.Meter.Get(simtime.CatNetwork))
	}
	return Result{t}, nil
}
