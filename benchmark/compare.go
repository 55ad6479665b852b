package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// comparison is one row of -compare's table.
type comparison struct {
	workload, metric string
	base, cand       summary
	verdict          string
}

// compareResults judges every (workload, end-to-end metric) pair of cand
// against base, and lists what differs among the results that must not:
// operation counts, and the group-(b) counts.
func compareResults(base, cand results) (rows []comparison, mismatches []string) {
	for _, def := range workloadDefs {
		b, c := base.Workloads[def.name], cand.Workloads[def.name]
		if b == nil || c == nil {
			if b != c {
				mismatches = append(mismatches, def.name+": in one file only")
			}
			continue
		}
		for _, m := range endToEnd {
			floor := 0.0
			if m.Name == "setup_s" {
				floor = setupFloorS
			}
			rows = append(rows, comparison{def.name, m.Name, b.EndToEnd[m.Name], c.EndToEnd[m.Name],
				judge(b.EndToEnd[m.Name], c.EndToEnd[m.Name], m.Better == "lower", isVirtual(m.Name), m.Bound, floor)})
		}
		if b.OpsAttempted != c.OpsAttempted || b.OpsFailed != c.OpsFailed {
			mismatches = append(mismatches, fmt.Sprintf("%s: ops_failed/ops_attempted %d/%d, base %d/%d",
				def.name, c.OpsFailed, c.OpsAttempted, b.OpsFailed, b.OpsAttempted))
		}
		for _, m := range countMetrics {
			if bv, cv := b.PerLayer[m.Name].Median, c.PerLayer[m.Name].Median; bv != cv {
				mismatches = append(mismatches, fmt.Sprintf("%s: %s %v, base %v", def.name, m.Name, cv, bv))
			}
		}
	}
	return rows, mismatches
}

// runCompare prints the table and returns the exit code: 1 on any worse
// verdict or count mismatch. Unresolved rows are printed but do not fail:
// they say the runs were too noisy to tell, not that something regressed.
func runCompare(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "perf ledger:", err)
		return 2
	}
	cand, err := readResults(candPath)
	if err != nil {
		fmt.Fprintln(stderr, "perf ledger:", err)
		return 2
	}
	if base.Stamp.Seed != cand.Stamp.Seed || base.Stamp.Quick != cand.Stamp.Quick {
		fmt.Fprintln(stderr, "perf ledger: seed or size differs between the files: virtual results only compare at equal inputs")
		return 2
	}
	return printComparison(base, cand, stdout)
}

func printComparison(base, cand results, w io.Writer) int {
	rows, mismatches := compareResults(base, cand)
	fmt.Fprintf(w, "base      %s  %s\ncandidate %s  %s\n", base.Stamp.Commit, base.Stamp.MeasuredAt, cand.Stamp.Commit, cand.Stamp.MeasuredAt)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] n\tcandidate median [q1, q3] n\tcandidate/base\tverdict")
	counts := map[string]int{}
	for _, r := range rows {
		ratio := "n/a"
		if r.base.Median != 0 {
			ratio = fmt.Sprintf("%.4f of %.6g %s", r.cand.Median/r.base.Median, r.base.Median, r.base.Unit)
		}
		cell := func(s summary) string { return fmt.Sprintf("%.6g [%.6g, %.6g] %d", s.Median, s.Q1, s.Q3, s.N) }
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", r.workload, r.metric, r.base.Unit, cell(r.base), cell(r.cand), ratio, r.verdict)
		counts[r.verdict]++
	}
	tw.Flush()
	for _, m := range mismatches {
		fmt.Fprintln(w, "MISMATCH:", m)
	}
	fmt.Fprintf(w, "%d better, %d within, %d worse, %d unresolved; %d count mismatches\n",
		counts[verdictBetter], counts[verdictWithin], counts[verdictWorse], counts[verdictUnresolved], len(mismatches))
	if counts[verdictWorse] > 0 || len(mismatches) > 0 {
		return 1
	}
	return 0
}
