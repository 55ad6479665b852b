package faults

import (
	"testing"

	"rmmap/internal/memsim"
)

// FuzzParsePlan throws arbitrary bytes at the JSON plan parser. ParsePlan
// guards the only external input surface of the chaos tooling
// (rmmap chaos -plan), so it must never panic, and any plan it accepts
// must satisfy the invariants the injector assumes.
func FuzzParsePlan(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed": 7}`))
	f.Add([]byte(`{"seed": 20260805,
	  "rules": [{"site": "rpc", "endpoint": "rmmap.auth", "prob": 0.2,
	             "after": "100us", "until": "2ms", "max": 4}],
	  "crashes": [{"machine": 1, "at": "1.2ms"}],
	  "partitions": [{"from": 2, "to": 0, "after": "500us", "until": "1ms"}]}`))
	f.Add([]byte(`{"rules": [{"site": "partition", "prob": 1}]}`))
	f.Add([]byte(`{"rules": [{"site": "rdma-read", "prob": 1.5}]}`))
	f.Add([]byte(`{"crashes": [{"machine": 0, "at": "-3ms"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := ParsePlan(data)
		if err != nil {
			return
		}
		for i, r := range plan.Rules {
			if r.Prob < 0 || r.Prob > 1 {
				t.Fatalf("rule %d: accepted prob %v outside [0,1]", i, r.Prob)
			}
			if r.Site < 0 || r.Site >= numSites || r.Site == SitePartition {
				t.Fatalf("rule %d: accepted invalid site %d", i, int(r.Site))
			}
			if r.Until != 0 && r.Until <= r.After {
				t.Fatalf("rule %d: accepted empty window [%d, %d]", i, r.After, r.Until)
			}
			if r.Max < 0 {
				t.Fatalf("rule %d: accepted negative max %d", i, r.Max)
			}
		}
		seen := make(map[memsim.MachineID]bool)
		for i, c := range plan.Crashes {
			if c.Machine < 0 {
				t.Fatalf("crash %d: accepted machine %d", i, c.Machine)
			}
			if seen[c.Machine] {
				t.Fatalf("crash %d: accepted overlapping crash entries for machine %d", i, c.Machine)
			}
			seen[c.Machine] = true
		}
		for i, q := range plan.Partitions {
			if q.From < 0 || q.To < 0 || q.From == q.To {
				t.Fatalf("partition %d: accepted link %d->%d", i, q.From, q.To)
			}
			if q.Until != 0 && q.Until <= q.After {
				t.Fatalf("partition %d: accepted empty window [%d, %d]", i, q.After, q.Until)
			}
		}
		// An accepted plan must be usable: building the injector and
		// consulting it at every site must not panic.
		in := NewInjector(plan, nil)
		for s := Site(0); s < numSites; s++ {
			_ = in.Check(s, 0, 1, "rmmap.auth")
		}
		_ = in.CheckPartition(0, 1)
		_ = in.CrashedNow(0)
	})
}
