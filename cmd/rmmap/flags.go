package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"

	"rmmap/internal/platformbuilder"
	"rmmap/internal/simtime"
)

// clusterFlags holds the workflow and cluster flags several subcommands
// share. Each subcommand registers only the ones it takes, with its own
// default and, where the meaning differs, its own help text.
type clusterFlags struct {
	workflow string
	small    bool
	mode     string
	machines int
	pods     int
	workers  int
	topology string
	replicas int
	plan     string
	requests int
}

// use names one cluster flag a subcommand takes: its default there (a
// string, bool or int matching the flag) and its help text there (empty
// for the shared text in sharedUsage).
type use struct {
	name  string
	def   any
	usage string
}

var sharedUsage = map[string]string{
	"workflow": "workflow: finra, ml-training, ml-prediction, wordcount",
	"small":    "use the small (test-scale) configuration",
	"topology": "cluster shape: a platformbuilder recipe name or topology JSON file (see PLATFORMS.md); default flat",
}

// newClusterFlags registers the named cluster flags on fs.
func newClusterFlags(fs *flag.FlagSet, uses ...use) *clusterFlags {
	c := &clusterFlags{}
	vars := map[string]any{
		"workflow": &c.workflow, "small": &c.small, "mode": &c.mode,
		"machines": &c.machines, "pods": &c.pods, "workers": &c.workers,
		"topology": &c.topology,
		"replicas": &c.replicas, "plan": &c.plan, "requests": &c.requests,
	}
	for _, u := range uses {
		usage := cmp.Or(u.usage, sharedUsage[u.name])
		switch p := vars[u.name].(type) {
		case *string:
			fs.StringVar(p, u.name, u.def.(string), usage)
		case *int:
			fs.IntVar(p, u.name, u.def.(int), usage)
		case *bool:
			fs.BoolVar(p, u.name, u.def.(bool), usage)
		default:
			panic("unknown cluster flag -" + u.name)
		}
	}
	return c
}

// builder resolves -topology at -machines (0 when the subcommand has no
// -machines: the recipe's own size). An empty -topology is the flat
// recipe, which builds the same cluster as platform.NewChaosCluster.
func (c *clusterFlags) builder() (*platformbuilder.Builder, error) {
	shape := c.topology
	if shape == "" {
		shape = "flat"
	}
	b, err := platformbuilder.Resolve(shape, c.machines)
	if err != nil {
		return nil, fmt.Errorf("-topology: %v (known recipes: %v)", err, platformbuilder.Recipes())
	}
	return b, nil
}

// newFlagSet returns a subcommand's flag set, reporting to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("rmmap "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseExit maps a flag-parse error to the exit status flag.ExitOnError
// uses: 0 after -h, 2 for a bad flag (the flag set has printed why).
func parseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// checkRate rejects a rate no arrival schedule can advance at: not finite
// and positive, or a gap under 1 ns (simtime.PerSecond returns 0).
func checkRate(flag string, rate float64) error {
	if simtime.PerSecond(rate) == 0 {
		return fmt.Errorf("bad -%s %v: want a finite rate above 0 and at most 1e9 req/s", flag, rate)
	}
	return nil
}
