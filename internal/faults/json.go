package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// JSON plan format (rmmap chaos -plan). Sites are named ("rdma-read",
// "doorbell", "rpc", "tcp-dial", "tcp-roundtrip", "rdma-write"), times are
// Go duration strings measured from virtual time 0, and machine -1 (or an
// omitted target) means any machine. Example:
//
//	{
//	  "seed": 20260805,
//	  "rules": [{"site": "rpc", "endpoint": "rmmap.auth", "prob": 0.2,
//	             "after": "100us", "until": "2ms", "max": 4}],
//	  "crashes": [{"machine": 1, "at": "1.2ms"}],
//	  "partitions": [{"from": 2, "to": 0, "after": "500us", "until": "1ms"}]
//	}
type planJSON struct {
	Seed       uint64          `json:"seed"`
	Rules      []ruleJSON      `json:"rules,omitempty"`
	Crashes    []crashJSON     `json:"crashes,omitempty"`
	Partitions []partitionJSON `json:"partitions,omitempty"`

	// Control-plane schedules (DESIGN.md §13): the coordinator can crash
	// (and optionally recover) and individual machines can be partitioned
	// from it.
	CoordCrashes    []coordCrashJSON     `json:"coordinator_crashes,omitempty"`
	CoordPartitions []coordPartitionJSON `json:"coordinator_partitions,omitempty"`
}

type ruleJSON struct {
	Site     string  `json:"site"`
	Target   *int    `json:"target,omitempty"` // nil = any machine
	Endpoint string  `json:"endpoint,omitempty"`
	Prob     float64 `json:"prob"`
	After    string  `json:"after,omitempty"`
	Until    string  `json:"until,omitempty"`
	Max      int     `json:"max,omitempty"`
}

type crashJSON struct {
	Machine int    `json:"machine"`
	At      string `json:"at"`
}

type partitionJSON struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	After string `json:"after,omitempty"`
	Until string `json:"until,omitempty"`
}

type coordCrashJSON struct {
	At        string `json:"at"`
	RecoverAt string `json:"recover_at,omitempty"` // omitted = stays down
}

type coordPartitionJSON struct {
	Machine *int   `json:"machine,omitempty"` // nil = every machine
	After   string `json:"after,omitempty"`
	Until   string `json:"until,omitempty"`
}

func siteByName(name string) (Site, error) {
	for s, n := range siteNames {
		if n == name {
			return Site(s), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown site %q", name)
}

// parseAt parses a Go duration string into a virtual-time instant measured
// from 0; "" means 0.
func parseAt(s string) (simtime.Time, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("faults: bad duration %q: %w", s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("faults: negative duration %q", s)
	}
	return simtime.Time(d.Nanoseconds()), nil
}

// ParsePlan decodes a JSON fault plan. An unknown key is an error, not a
// no-op: a misspelt "recover_at" would otherwise leave the coordinator
// down for the whole run.
func ParsePlan(data []byte) (Plan, error) {
	var pj planJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pj); err != nil {
		return Plan{}, fmt.Errorf("faults: parse plan: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Plan{}, fmt.Errorf("faults: parse plan: data after the plan object")
	}
	p := Plan{Seed: pj.Seed}
	for i, rj := range pj.Rules {
		site, err := siteByName(rj.Site)
		if err != nil {
			return Plan{}, fmt.Errorf("rule %d: %w", i, err)
		}
		if site == SitePartition {
			return Plan{}, fmt.Errorf("rule %d: partitions are schedules, not rules — use \"partitions\"", i)
		}
		if rj.Prob < 0 || rj.Prob > 1 {
			return Plan{}, fmt.Errorf("rule %d: prob %v outside [0,1]", i, rj.Prob)
		}
		if rj.Max < 0 {
			return Plan{}, fmt.Errorf("rule %d: negative max %d", i, rj.Max)
		}
		r := Rule{Site: site, Target: AnyMachine, Endpoint: rj.Endpoint, Prob: rj.Prob, Max: rj.Max}
		if rj.Target != nil {
			if *rj.Target < -1 {
				return Plan{}, fmt.Errorf("rule %d: bad target machine %d (use -1 or omit for any)", i, *rj.Target)
			}
			r.Target = memsim.MachineID(*rj.Target)
		}
		if r.After, err = parseAt(rj.After); err != nil {
			return Plan{}, fmt.Errorf("rule %d: %w", i, err)
		}
		if r.Until, err = parseAt(rj.Until); err != nil {
			return Plan{}, fmt.Errorf("rule %d: %w", i, err)
		}
		// Until 0 means "never lifts"; any other Until must leave the
		// window nonempty, or the rule can silently never fire.
		if r.Until != 0 && r.Until <= r.After {
			return Plan{}, fmt.Errorf("rule %d: empty window: until %q <= after %q", i, rj.Until, rj.After)
		}
		p.Rules = append(p.Rules, r)
	}
	crashAt := make(map[int]simtime.Time)
	for i, cj := range pj.Crashes {
		if cj.Machine < 0 {
			return Plan{}, fmt.Errorf("crash %d: bad machine %d", i, cj.Machine)
		}
		at, err := parseAt(cj.At)
		if err != nil {
			return Plan{}, fmt.Errorf("crash %d: %w", i, err)
		}
		if prev, dup := crashAt[cj.Machine]; dup {
			return Plan{}, fmt.Errorf("crash %d: machine %d already crashes at %v — a machine crashes once",
				i, cj.Machine, simtime.Duration(prev))
		}
		crashAt[cj.Machine] = at
		p.Crashes = append(p.Crashes, Crash{Machine: memsim.MachineID(cj.Machine), At: at})
	}
	for i, qj := range pj.Partitions {
		if qj.From < 0 || qj.To < 0 {
			return Plan{}, fmt.Errorf("partition %d: bad link %d->%d", i, qj.From, qj.To)
		}
		if qj.From == qj.To {
			return Plan{}, fmt.Errorf("partition %d: machine %d cannot partition from itself", i, qj.From)
		}
		var q Partition
		var err error
		q.From = memsim.MachineID(qj.From)
		q.To = memsim.MachineID(qj.To)
		if q.After, err = parseAt(qj.After); err != nil {
			return Plan{}, fmt.Errorf("partition %d: %w", i, err)
		}
		if q.Until, err = parseAt(qj.Until); err != nil {
			return Plan{}, fmt.Errorf("partition %d: %w", i, err)
		}
		if q.Until != 0 && q.Until <= q.After {
			return Plan{}, fmt.Errorf("partition %d: empty window: until %q <= after %q", i, qj.Until, qj.After)
		}
		p.Partitions = append(p.Partitions, q)
	}
	for i, cj := range pj.CoordCrashes {
		if len(p.CoordCrashes) > 0 {
			return Plan{}, fmt.Errorf("coordinator crash %d: only one coordinator crash per plan", i)
		}
		var cc CoordCrash
		var err error
		if cc.At, err = parseAt(cj.At); err != nil {
			return Plan{}, fmt.Errorf("coordinator crash %d: %w", i, err)
		}
		if cc.RecoverAt, err = parseAt(cj.RecoverAt); err != nil {
			return Plan{}, fmt.Errorf("coordinator crash %d: %w", i, err)
		}
		if cc.RecoverAt != 0 && cc.RecoverAt <= cc.At {
			return Plan{}, fmt.Errorf("coordinator crash %d: recover_at %q <= at %q",
				i, cj.RecoverAt, cj.At)
		}
		p.CoordCrashes = append(p.CoordCrashes, cc)
	}
	for i, qj := range pj.CoordPartitions {
		q := CoordPartition{Machine: AnyMachine}
		if qj.Machine != nil {
			if *qj.Machine < -1 {
				return Plan{}, fmt.Errorf("coordinator partition %d: bad machine %d (use -1 or omit for any)", i, *qj.Machine)
			}
			q.Machine = memsim.MachineID(*qj.Machine)
		}
		var err error
		if q.After, err = parseAt(qj.After); err != nil {
			return Plan{}, fmt.Errorf("coordinator partition %d: %w", i, err)
		}
		if q.Until, err = parseAt(qj.Until); err != nil {
			return Plan{}, fmt.Errorf("coordinator partition %d: %w", i, err)
		}
		if q.Until != 0 && q.Until <= q.After {
			return Plan{}, fmt.Errorf("coordinator partition %d: empty window: until %q <= after %q", i, qj.Until, qj.After)
		}
		p.CoordPartitions = append(p.CoordPartitions, q)
	}
	return p, nil
}

// LoadPlan reads and parses a JSON fault plan from path.
func LoadPlan(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	return ParsePlan(data)
}
