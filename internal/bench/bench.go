package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

// Experiment is one reproducible figure/table.
type Experiment struct {
	// ID is the experiment key (fig3, fig11a, abl-prefetch, …).
	ID string
	// Title describes what the paper figure shows.
	Title string
	// Expect is the acceptance shape from the paper.
	Expect string
	// Run executes the experiment, writing its table to w. scale in
	// (0, 1] shrinks payload sizes for quick runs; 1 is the calibrated
	// default documented in EXPERIMENTS.md.
	Run func(w io.Writer, scale float64) error
}

// Workers is the engine worker-pool size every experiment runs with
// (Options.Workers): 0 uses every core (GOMAXPROCS), 1 is the sequential
// reference; rmmap bench -workers overrides it. Results are byte-identical
// at any setting — workers change wall-clock time only (DESIGN.md §10).
var Workers = 0

// CtrlShards is the control-plane shard count every experiment's engine
// runs with (Options.CtrlShards): 0/1 is the single journaled coordinator;
// rmmap bench -ctrl-shards overrides it. Like Workers, results are
// byte-identical at any setting (DESIGN.md §15) — only the rmmap_ctrl_*
// journal counters reflect the per-shard streams.
var CtrlShards = 0

// benchOptions returns the Options experiments construct engines with.
func benchOptions() platform.Options {
	return platform.Options{Workers: Workers, CtrlShards: CtrlShards}
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs sorted.
func IDs() []string {
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// table is a small helper around tabwriter.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer, header ...string) *table {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	t := &table{tw: tw}
	t.row(toAny(header)...)
	return t
}

func toAny(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

// scaleInt shrinks a calibrated size, keeping a floor of 1.
func scaleInt(n int, scale float64) int {
	if scale <= 0 || scale >= 1 {
		return n
	}
	s := int(float64(n) * scale)
	if s < 1 {
		s = 1
	}
	return s
}

// pct formats a ratio as a percentage.
func pct(part, whole float64) string {
	if whole == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*part/whole)
}

// speedup formats base/new as a multiplier.
func speedup(base, new float64) string {
	if new == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", base/new)
}

// computeCat is a shorthand for the compute category.
func computeCat() simtime.Category { return simtime.CatCompute }

// defaultCM is a shorthand used by tests.
func defaultCM() *simtime.CostModel { return simtime.DefaultCostModel() }
