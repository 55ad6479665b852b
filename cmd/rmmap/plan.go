package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"rmmap/internal/ctrl"
	"rmmap/internal/load"
	"rmmap/internal/platform"
)

func runPlan(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("plan", stderr)
	cf := newClusterFlags(fs, use{"workflow", "finra", ""})
	full := fs.Bool("full", false, "print every instance slot (default: first/last per type)")
	asJSON := fs.Bool("json", false, "emit the plan as JSON (the form stored with the workflow, §4.2)")
	verify := fs.String("verify", "", "audit a coordinator save file (rmmap chaos -ctrl-journal): replay it and check the journaled slots for overlaps")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	if *verify != "" {
		return runVerify(*verify, stdout, stderr)
	}

	wf, err := load.Workflow(cf.workflow, false)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	plan, err := platform.GeneratePlan(wf)
	if err != nil {
		fmt.Fprintf(stderr, "plan generation failed: %v\n", err)
		return 1
	}
	if err := plan.Validate(); err != nil {
		fmt.Fprintf(stderr, "plan invalid: %v\n", err)
		return 1
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plan); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "workflow %q: %d functions, %d instance slots, plan verified disjoint\n\n",
		wf.Name, len(wf.Functions), len(plan.Slots()))
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "slot\trange\ttext\theap\tstack")
	lastFn := ""
	slots := plan.Slots()
	for i, id := range slots {
		if !*full {
			nextDiffers := i+1 >= len(slots) || slots[i+1].Function != id.Function
			if id.Function == lastFn && !nextDiffers {
				continue // show first and last instance per type
			}
		}
		lastFn = id.Function
		l, _ := plan.Slot(id)
		fmt.Fprintf(tw, "%s\t[%#x,%#x)\t[%#x,%#x)\t[%#x,%#x)\t[%#x,%#x)\n",
			id, l.Start, l.End, l.TextStart, l.TextEnd, l.HeapStart, l.HeapEnd, l.StackStart, l.StackEnd)
	}
	tw.Flush()
	return 0
}

// runVerify audits a coordinator save file: a state summary, then the
// disjointness check over the journaled slots. Returns the process exit
// code: 0 clean, 1 unreadable, 2 plan invalid.
func runVerify(path string, stdout, stderr io.Writer) int {
	st, replayed, err := ctrl.LoadStateFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "load %s: %v\n", path, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: epoch %d, %d slots, %d live registrations, %d placements (%d journal records replayed)\n",
		path, st.Epoch, len(st.Slots), len(st.Regs), len(st.Places), replayed)
	if err := verifySlots(st.Slots); err != nil {
		fmt.Fprintf(stderr, "plan invalid: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "plan verified: %d journaled slots disjoint\n", len(st.Slots))
	return 0
}

// verifySlots applies Plan.Validate's rules to journaled slots: every
// range must be well-formed and pairwise disjoint. Errors name both slots
// as fn#inst.
func verifySlots(slots []ctrl.PlanSlot) error {
	sorted := slices.Clone(slots)
	slices.SortFunc(sorted, func(a, b ctrl.PlanSlot) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
	})
	for i, s := range sorted {
		if s.End <= s.Start {
			return fmt.Errorf("slot %s#%d: empty or inverted range [%#x,%#x)", s.Fn, s.Inst, s.Start, s.End)
		}
		if i > 0 {
			prev := sorted[i-1]
			if s.Start < prev.End {
				return fmt.Errorf("slot %s#%d [%#x,%#x) overlaps %s#%d [%#x,%#x)",
					s.Fn, s.Inst, s.Start, s.End, prev.Fn, prev.Inst, prev.Start, prev.End)
			}
		}
	}
	return nil
}
