package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rmmap/internal/simtime"
)

// TestSubcommands runs every subcommand through the dispatcher at smoke
// scale and checks its exit status and the start of its first stdout line.
func TestSubcommands(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "ctrl.save")
	for _, tc := range []struct {
		args  []string
		code  int
		first string // prefix of the first stdout line
	}{
		{nil, 0, "usage: rmmap <subcommand>"},
		{[]string{"help"}, 0, "usage: rmmap <subcommand>"},
		{[]string{"nope"}, 2, ""},
		{[]string{"workflow", "-workflow", "wordcount", "-small"}, 0, "request 0: latency "},
		{[]string{"workflow", "-workflow", "wordcount", "-small", "-tcp"}, 0, "cluster: 10 machines over real TCP sockets"},
		{[]string{"workflow", "-workflow", "wordcount", "-small", "-mode", "prefetch"}, 0, "request 0: latency "},
		{[]string{"chaos", "-workflow", "wordcount", "-small"}, 0, "plan: seed=20260805 prob=0.1"},
		{[]string{"chaos", "-workflow", "wordcount", "-small", "-no-recovery",
			"-prob", "0", "-crash-machine", "0", "-crash-at", "570us"}, 1,
			"plan: seed=20260805 prob=0 crash=machine0@570.00us recovery=off"},
		{[]string{"load", "-workflow", "wordcount", "-small", "-horizon", "100ms", "-tenants", "20"}, 0,
			"wordcount (rmmap): 20 tenants, "},
		{[]string{"load", "-workflow", "wordcount", "-small", "-horizon", "100ms", "-tenants", "20",
			"-mode", "rmmap-prefetch", "-replicas", "1", "-plan", "plans/crash-failover.json"}, 0,
			"wordcount (rmmap(prefetch)): 20 tenants, "},
		{[]string{"net", "-rows", "500"}, 0, "producer serving frames + RMMAP RPC on 127.0.0.1:"},
		{[]string{"plan"}, 0, `workflow "finra": `},
		{[]string{"trace", "-scale", "0.02", "-machines", "4", "-pods", "8"}, 0, "FINRA / rmmap(prefetch): 1 request(s)"},
		{[]string{"bench", "-list"}, 0, "abl-adaptive "},
		{[]string{"bench", "-no-such-flag"}, 2, ""},
		// Pipeline: chaos writes the coordinator's durable image, plan audits it.
		{[]string{"chaos", "-workflow", "wordcount", "-small", "-ctrl-journal", journal}, 0, "plan: seed=20260805"},
		{[]string{"plan", "-verify", journal}, 0, journal + ": epoch "},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("rmmap %s: exit %d, want %d\nstderr:\n%s", strings.Join(tc.args, " "), code, tc.code, stderr.String())
			continue
		}
		first, _, _ := strings.Cut(stdout.String(), "\n")
		if !strings.HasPrefix(first, tc.first) {
			t.Errorf("rmmap %s: first line %q, want prefix %q", strings.Join(tc.args, " "), first, tc.first)
		}
	}
}

// TestDegenerateRatesRejected: a rate no arrival schedule can advance at
// (NaN, infinite, or a gap under 1 ns) exits 1 at once, naming its flag.
func TestDegenerateRatesRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"load", "-rate", "NaN", "-horizon", "10ms", "-save-trace", "x"}, "-rate"},
		{[]string{"load", "-rate", "Inf", "-horizon", "10ms", "-save-trace", "x"}, "-rate"},
		{[]string{"load", "-rate", "1e12", "-horizon", "10ms", "-save-trace", "x"}, "-rate"},
		{[]string{"load", "-burst-rate", "NaN", "-horizon", "10ms", "-small"}, "-burst-rate"},
		{[]string{"load", "-curve", "NaN", "-horizon", "10ms", "-small"}, "-curve"},
		{[]string{"load", "-curve", "1e12", "-horizon", "10ms", "-small"}, "-curve"},
		{[]string{"trace", "-openloop", "NaN", "-duration", "500ms"}, "-openloop"},
		{[]string{"trace", "-openloop", "Inf", "-duration", "500ms"}, "-openloop"},
		{[]string{"trace", "-openloop", "1e12", "-duration", "500ms"}, "-openloop"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), tc.flag+" ") {
			t.Errorf("rmmap %s: exit %d, stderr %q; want 1 naming %s", strings.Join(tc.args, " "), code, stderr.String(), tc.flag)
		}
	}
}

// TestBenchTopologyJSON pins -topology and -json on the fig14 grid:
// -topology flat prints exactly what no flag prints, spine-leaf moves at
// least one rmmap row, and a -json run with no IDs prints its three
// default experiments and writes exactly those, each fig14 latency equal
// to the printed one.
func TestBenchTopologyJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig14 grid three times")
	}
	bench := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args = append([]string{"bench", "-scale", "0.02"}, args...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("rmmap %s: exit %d\nstderr:\n%s", strings.Join(args, " "), code, stderr.String())
		}
		return stdout.String()
	}
	flat := bench("fig14")
	if got := bench("-topology", "flat", "fig14"); got != flat {
		t.Errorf("-topology flat output differs from the default\n--- default:\n%s\n--- flat:\n%s", flat, got)
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	out := bench("-topology", "spine-leaf", "-json")
	if !strings.HasSuffix(out, "\nwrote BENCH_fig14.json\n") {
		t.Errorf("-json output does not end with the wrote line:\n%s", out)
	}
	raw, err := os.ReadFile("BENCH_fig14.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Topology    string
		Experiments []struct {
			ID     string
			Tables []struct{ Rows [][]any }
		}
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, ex := range rep.Experiments {
		ids = append(ids, ex.ID)
		if !strings.Contains(out, "=== "+ex.ID+" — ") {
			t.Errorf("BENCH_fig14.json holds %s, which stdout does not print", ex.ID)
		}
	}
	if want := []string{"abl-failover", "abl-topology", "fig14"}; !slices.Equal(ids, want) || rep.Topology != "spine-leaf" {
		t.Fatalf("BENCH_fig14.json: topology %q experiments %v, want spine-leaf %v", rep.Topology, ids, want)
	}

	// fig14Latencies maps workflow/approach to the latency fig14's stdout
	// table prints.
	fig14Latencies := func(out string) map[string]string {
		_, section, _ := strings.Cut(out, "=== fig14 ")
		lat := map[string]string{}
		// Skip the title, expected-shape, blank and header lines.
		for _, line := range strings.Split(section, "\n")[4:] {
			if line == "" {
				break
			}
			f := strings.Fields(line)
			lat[f[0]+"/"+f[1]] = f[2]
		}
		return lat
	}
	flatLat, spineLat := fig14Latencies(flat), fig14Latencies(out)
	moved := false
	for _, row := range rep.Experiments[2].Tables[0].Rows {
		key := row[0].(string) + "/" + row[1].(string)
		want := simtime.Duration(row[2].(float64)).String()
		if spineLat[key] != want {
			t.Errorf("%s: stdout latency %q, JSON latency %s", key, spineLat[key], want)
		}
		if strings.HasPrefix(row[1].(string), "rmmap") && spineLat[key] != flatLat[key] {
			moved = true
		}
	}
	if !moved {
		t.Error("-topology spine-leaf left every rmmap latency of fig14 at its flat value")
	}
}
