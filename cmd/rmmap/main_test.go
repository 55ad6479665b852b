package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
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
