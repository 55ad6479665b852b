package load

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"rmmap/internal/simtime"
)

// Replayable trace format: one JSON object per line, in arrival order.
//
//	{"at_ns":12500,"tenant":"t0042","deadline_ns":2000000}
//
// deadline_ns is optional (0 = none / admission default). The format is
// the load tooling's exchange surface — rmmap load -save-trace writes it,
// -trace replays it — so ReadEvents validates every line and reports
// errors positionally, like faults.ParsePlan does for fault plans.

// eventJSON is Event's wire form.
type eventJSON struct {
	AtNs       int64  `json:"at_ns"`
	Tenant     string `json:"tenant"`
	DeadlineNs int64  `json:"deadline_ns,omitempty"`
}

// WriteEvents writes events as JSONL.
func WriteEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, ev := range events {
		if err := enc.Encode(eventJSON{
			AtNs: int64(ev.At), Tenant: ev.Tenant, DeadlineNs: int64(ev.Deadline),
		}); err != nil {
			return fmt.Errorf("load: event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadEvents parses a JSONL trace, rejecting malformed input with
// positional errors: bad JSON, negative instants or deadlines, missing
// tenants, and out-of-order arrivals (the replay contract is sorted
// arrival order — a shuffled trace is a corrupted trace).
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var events []Event
	line := 0
	last := simtime.Time(-1)
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ej eventJSON
		if err := json.Unmarshal(raw, &ej); err != nil {
			return nil, fmt.Errorf("load: line %d: %w", line, err)
		}
		if ej.AtNs < 0 {
			return nil, fmt.Errorf("load: line %d: negative arrival instant %d", line, ej.AtNs)
		}
		if ej.DeadlineNs < 0 {
			return nil, fmt.Errorf("load: line %d: negative deadline %d", line, ej.DeadlineNs)
		}
		if ej.Tenant == "" {
			return nil, fmt.Errorf("load: line %d: missing tenant", line)
		}
		at := simtime.Time(ej.AtNs)
		if at < last {
			return nil, fmt.Errorf("load: line %d: arrival %d before line %d's %d (trace must be sorted)",
				line, ej.AtNs, line-1, int64(last))
		}
		last = at
		events = append(events, Event{At: at, Tenant: ej.Tenant, Deadline: simtime.Duration(ej.DeadlineNs)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("load: line %d: %w", line+1, err)
	}
	return events, nil
}

// LoadTrace reads a JSONL trace file.
func LoadTrace(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := ReadEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

// SaveTrace writes a JSONL trace file.
func SaveTrace(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEvents(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
