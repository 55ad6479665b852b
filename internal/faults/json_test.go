package faults

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmmap/internal/simtime"
)

func TestParsePlanFull(t *testing.T) {
	data := []byte(`{
		"seed": 20260805,
		"rules": [
			{"site": "rpc", "endpoint": "rmmap.auth", "prob": 0.2, "after": "100us", "until": "2ms", "max": 4},
			{"site": "rdma-read", "target": 1, "prob": 0.5}
		],
		"crashes": [{"machine": 1, "at": "1.2ms"}],
		"partitions": [{"from": 2, "to": 0, "after": "500us", "until": "1ms"}]
	}`)
	p, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 20260805 {
		t.Errorf("seed = %d", p.Seed)
	}
	if len(p.Rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(p.Rules))
	}
	r := p.Rules[0]
	if r.Site != SiteRPC || r.Endpoint != "rmmap.auth" || r.Prob != 0.2 || r.Max != 4 {
		t.Errorf("rule 0 = %+v", r)
	}
	if r.After != simtime.Time(100*simtime.Microsecond) || r.Until != simtime.Time(2*simtime.Millisecond) {
		t.Errorf("rule 0 window = [%v, %v]", r.After, r.Until)
	}
	if p.Rules[0].Target != AnyMachine {
		t.Errorf("omitted target = %d, want AnyMachine", p.Rules[0].Target)
	}
	if p.Rules[1].Target != 1 || p.Rules[1].Site != SiteRDMARead {
		t.Errorf("rule 1 = %+v", p.Rules[1])
	}
	if len(p.Crashes) != 1 || p.Crashes[0].Machine != 1 ||
		p.Crashes[0].At != simtime.Time(1200*simtime.Microsecond) {
		t.Errorf("crashes = %+v", p.Crashes)
	}
	if len(p.Partitions) != 1 {
		t.Fatalf("partitions = %d, want 1", len(p.Partitions))
	}
	q := p.Partitions[0]
	if q.From != 2 || q.To != 0 || q.After != simtime.Time(500*simtime.Microsecond) ||
		q.Until != simtime.Time(1*simtime.Millisecond) {
		t.Errorf("partition = %+v", q)
	}
}

func TestParsePlanErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"bad json", `{`, "parse plan"},
		{"unknown site", `{"rules":[{"site":"quantum","prob":0.5}]}`, "unknown site"},
		{"partition as rule", `{"rules":[{"site":"partition","prob":0.5}]}`, "partitions are schedules"},
		{"prob range", `{"rules":[{"site":"rpc","prob":1.5}]}`, "outside [0,1]"},
		{"bad duration", `{"crashes":[{"machine":0,"at":"soon"}]}`, "bad duration"},
		{"negative duration", `{"partitions":[{"from":0,"to":1,"until":"-5us"}]}`, "negative duration"},
		{"negative max", `{"rules":[{"site":"rpc","prob":0.5,"max":-1}]}`, "rule 0: negative max"},
		{"bad target", `{"rules":[{"site":"rpc","prob":0.5,"target":-2}]}`, "rule 0: bad target machine -2"},
		{"empty rule window", `{"rules":[{"site":"rpc","prob":0.5,"after":"2ms","until":"1ms"}]}`, "rule 0: empty window"},
		{"zero rule window", `{"rules":[{"site":"rpc","prob":0.5,"after":"1ms","until":"1ms"}]}`, "rule 0: empty window"},
		{"negative crash machine", `{"crashes":[{"machine":-1,"at":"1ms"}]}`, "crash 0: bad machine -1"},
		{"duplicate crash", `{"crashes":[{"machine":1,"at":"1ms"},{"machine":1,"at":"2ms"}]}`, "crash 1: machine 1 already crashes at 1.000ms"},
		{"negative partition machine", `{"partitions":[{"from":-1,"to":0}]}`, "partition 0: bad link -1->0"},
		{"self partition", `{"partitions":[{"from":2,"to":2}]}`, "partition 0: machine 2 cannot partition from itself"},
		{"empty partition window", `{"partitions":[{"from":0,"to":1,"after":"1.5ms","until":"1ms"}]}`, "partition 0: empty window"},
		{"zero partition window", `{"partitions":[{"from":0,"to":1,"after":"1ms","until":"1ms"}]}`, "partition 0: empty window"},
		{"misspelt recover_at", `{"coordinator_crashes":[{"at":"1ms","recover-at":"2ms"}]}`, `unknown field "recover-at"`},
		{"unknown top-level key", `{"seed":1,"crash":[]}`, `unknown field "crash"`},
		{"trailing object", `{"seed":1} {"seed":2}`, "data after the plan object"},
		{"trailing brace", `{"seed":1}}`, "data after the plan object"},
	}
	for _, tc := range cases {
		_, err := ParsePlan([]byte(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestParsePlanCoordShard: a coordinator crash takes down the one
// coordinator. The shard-less form parses as that crash, and any "shard"
// key — a target with no coordinator to aim at — is rejected by name
// rather than silently widened into a full outage.
func TestParsePlanCoordShard(t *testing.T) {
	p, err := ParsePlan([]byte(`{"coordinator_crashes":[{"at":"1ms","recover_at":"2ms"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := CoordCrash{At: simtime.Time(simtime.Millisecond), RecoverAt: simtime.Time(2 * simtime.Millisecond)}
	if len(p.CoordCrashes) != 1 || p.CoordCrashes[0] != want {
		t.Fatalf("coordinator crash parsed as %+v, want [%+v]", p.CoordCrashes, want)
	}
	for _, shard := range []string{"2", "0", "-1"} {
		in := `{"coordinator_crashes":[{"at":"1ms","recover_at":"2ms","shard":` + shard + `}]}`
		if _, err := ParsePlan([]byte(in)); err == nil || !strings.Contains(err.Error(), `unknown field "shard"`) {
			t.Errorf("shard %s: err = %v, want unknown field \"shard\"", shard, err)
		}
	}
}

// TestParsePlanCorpus promotes the checked-in FuzzParsePlan corpus into a
// table test: every seed the fuzzer starts from (and any interesting inputs
// it minimized into testdata) must keep parsing — or keep failing — the
// same way, with positional messages for the failures. This pins the
// validation behavior the fuzz invariants rely on.
func TestParsePlanCorpus(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantErr string // "" = must parse
	}{
		{"empty plan", `{}`, ""},
		{"seed only", `{"seed": 7}`, ""},
		{"full plan", `{"seed": 20260805,
		  "rules": [{"site": "rpc", "endpoint": "rmmap.auth", "prob": 0.2,
		             "after": "100us", "until": "2ms", "max": 4}],
		  "crashes": [{"machine": 1, "at": "1.2ms"}],
		  "partitions": [{"from": 2, "to": 0, "after": "500us", "until": "1ms"}]}`, ""},
		{"crash-failover example", `{"seed": 20260805, "crashes": [{"machine": 1, "at": "1.1ms"}]}`, ""},
		{"partition-heal example", `{"seed": 20260805, "partitions": [{"from": 2, "to": 1, "after": "1ms", "until": "1.5ms"}]}`, ""},
		{"partition as rule", `{"rules": [{"site": "partition", "prob": 1}]}`, "rule 0: partitions are schedules"},
		{"prob above one", `{"rules": [{"site": "rdma-read", "prob": 1.5}]}`, "rule 0: prob 1.5 outside [0,1]"},
		{"negative crash time", `{"crashes": [{"machine": 0, "at": "-3ms"}]}`, "crash 0: "},
	}
	for _, tc := range cases {
		p, err := ParsePlan([]byte(tc.in))
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, parsed to %+v", tc.name, p)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestLoadPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"seed": 7, "crashes": [{"machine": 2, "at": "10us"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Crashes) != 1 || p.Crashes[0].Machine != 2 {
		t.Errorf("plan = %+v", p)
	}
	if _, err := LoadPlan(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}
