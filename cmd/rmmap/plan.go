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

// runVerify audits a coordinator save file (either format): per-shard
// summary, then the cross-shard disjointness check over the union of
// every shard's journaled slots. Returns the process exit code: 0 clean,
// 1 unreadable, 2 plan invalid.
func runVerify(path string, stdout, stderr io.Writer) int {
	states, err := ctrl.LoadShardStatesFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "load %s: %v\n", path, err)
		return 1
	}
	var all []shardSlot
	for _, ss := range states {
		prefix := path
		if len(states) > 1 {
			prefix = fmt.Sprintf("%s shard %d", path, ss.Shard)
		}
		fmt.Fprintf(stdout, "%s: epoch %d, %d slots, %d live registrations, %d placements (%d journal records replayed)\n",
			prefix, ss.State.Epoch, len(ss.State.Slots), len(ss.State.Regs), len(ss.State.Places), ss.Replayed)
		for _, sl := range ss.State.Slots {
			all = append(all, shardSlot{slot: sl, shard: ss.Shard, sharded: len(states) > 1})
		}
	}
	if err := verifyShardSlots(all); err != nil {
		fmt.Fprintf(stderr, "plan invalid: %v\n", err)
		return 2
	}
	if len(states) > 1 {
		fmt.Fprintf(stdout, "plan verified: %d journaled slots disjoint across %d shards\n", len(all), len(states))
	} else {
		fmt.Fprintf(stdout, "plan verified: %d journaled slots disjoint\n", len(all))
	}
	return 0
}

// shardSlot is one journaled slot tagged with its owning shard; sharded
// selects the "(shard N)" error rendering for multi-shard saves.
type shardSlot struct {
	slot    ctrl.PlanSlot
	shard   int
	sharded bool
}

func (s shardSlot) String() string {
	if s.sharded {
		return fmt.Sprintf("%s#%d (shard %d)", s.slot.Fn, s.slot.Inst, s.shard)
	}
	return fmt.Sprintf("%s#%d", s.slot.Fn, s.slot.Inst)
}

// verifyShardSlots applies Plan.Validate's rules to journaled slots: every
// range must be well-formed and pairwise disjoint, across shards too —
// shard journals partition the plan, never the address space, so an
// overlap between two shards is as fatal as one within a shard. Errors
// name both slots as fn#inst (and, on sharded saves, both shards).
func verifyShardSlots(slots []shardSlot) error {
	sorted := slices.Clone(slots)
	slices.SortFunc(sorted, func(a, b shardSlot) int {
		return cmp.Or(cmp.Compare(a.slot.Start, b.slot.Start), cmp.Compare(a.slot.End, b.slot.End))
	})
	for i, s := range sorted {
		if s.slot.End <= s.slot.Start {
			return fmt.Errorf("slot %s: empty or inverted range [%#x,%#x)", s, s.slot.Start, s.slot.End)
		}
		if i > 0 {
			prev := sorted[i-1]
			if s.slot.Start < prev.slot.End {
				return fmt.Errorf("slot %s [%#x,%#x) overlaps %s [%#x,%#x)",
					s, s.slot.Start, s.slot.End, prev, prev.slot.Start, prev.slot.End)
			}
		}
	}
	return nil
}
