package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"text/tabwriter"
)

// Result is what an experiment returns: its tables in print order.
type Result []*Table

// Table is one experiment table: a column header and rows of typed cells,
// plus the free-text lines printed around it.
type Table struct {
	// Caption lines print before the header, Note lines after the last
	// row; an empty line prints as a blank line.
	Caption []string `json:"caption,omitempty"`
	Header  []string `json:"header"`
	// Rows hold one cell per header column. A cell is a simtime.Duration
	// (encoded as integer nanoseconds), an integer, a label (string), a
	// Percent or a Multiplier. Compound values with their own print format
	// (fig12's "12.3/16" busy pods, fig16a's "1.23 MB") are labels.
	Rows [][]any  `json:"rows"`
	Note []string `json:"note,omitempty"`
}

func (t *Table) add(cells ...any) { t.Rows = append(t.Rows, cells) }

// Cell returns the cell of the given row in the named column. It panics
// on an unknown column, like an out-of-range row.
func (t *Table) Cell(row int, col string) any {
	i := slices.Index(t.Header, col)
	if i < 0 {
		panic(fmt.Sprintf("bench: no column %q in %q", col, t.Header))
	}
	return t.Rows[row][i]
}

// Print renders r as aligned text, a blank line between tables.
func (r Result) Print(w io.Writer) {
	for i, t := range r {
		if i > 0 {
			fmt.Fprintln(w)
		}
		for _, line := range t.Caption {
			fmt.Fprintln(w, line)
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
		for _, row := range t.Rows {
			for j, c := range row {
				if j > 0 {
					fmt.Fprint(tw, "\t")
				}
				fmt.Fprint(tw, c)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
		for _, line := range t.Note {
			fmt.Fprintln(w, line)
		}
	}
}

// Percent is a share in percent. NaN (a zero whole) prints "n/a".
type Percent float64

// pct returns part/whole as a Percent.
func pct(part, whole float64) Percent {
	if whole == 0 {
		return Percent(math.NaN())
	}
	return Percent(100 * part / whole)
}

func (p Percent) String() string {
	if math.IsNaN(float64(p)) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", float64(p))
}

// MarshalJSON encodes p as a number, or null when it is not finite.
func (p Percent) MarshalJSON() ([]byte, error) { return finiteJSON(float64(p)) }

// Multiplier is a ratio printed as "1.23x". +Inf (a zero divisor) prints
// "inf".
type Multiplier float64

// speedup returns base/new as a Multiplier.
func speedup(base, new float64) Multiplier {
	if new == 0 {
		return Multiplier(math.Inf(1))
	}
	return Multiplier(base / new)
}

func (m Multiplier) String() string {
	if math.IsInf(float64(m), 0) {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(m))
}

// MarshalJSON encodes m as a number, or null when it is not finite.
func (m Multiplier) MarshalJSON() ([]byte, error) { return finiteJSON(float64(m)) }

// finiteJSON encodes v as a JSON number; encoding/json rejects NaN and
// ±Inf, so those become null.
func finiteJSON(v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// Report is the BENCH_fig14.json document rmmap bench -json writes: the
// experiments one invocation ran, in run order.
type Report struct {
	Scale float64 `json:"scale"`
	// Topology names the -topology cluster shape ("flat" by default).
	Topology    string      `json:"topology"`
	Experiments []ReportRun `json:"experiments"`
}

// ReportRun is one experiment's tables in a Report.
type ReportRun struct {
	ID     string `json:"id"`
	Tables Result `json:"tables"`
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
