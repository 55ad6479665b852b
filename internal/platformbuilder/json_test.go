package platformbuilder

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmmap/internal/rdma"
)

const sampleTopology = `{
  "name": "mini-pod",
  "racks": [
    {"machines": [0, 1]},
    {"machines": [2, 3], "fabric": "tcp"}
  ],
  "tor":   {"hop_ns": 250,  "gbps": 12.5},
  "spine": {"hop_ns": 2000, "gbps": 3.125},
  "stragglers": [{"machine": 3, "mult": 2.0}]
}`

func TestParseTopology(t *testing.T) {
	b, err := ParseTopology([]byte(sampleTopology))
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "mini-pod" {
		t.Errorf("name = %q", b.Name())
	}
	spec, err := b.Spec()
	if err != nil {
		t.Fatal(err)
	}
	topo := spec.Topo
	if topo == nil {
		t.Fatal("no topology compiled")
	}
	if topo.Racks() != 2 || topo.Machines() != 4 {
		t.Errorf("racks=%d machines=%d, want 2/4", topo.Racks(), topo.Machines())
	}
	if topo.RackFabric(1) != rdma.FabricTCP {
		t.Error("rack 1 not TCP")
	}
	if topo.StragglerOf(3) != 2.0 {
		t.Errorf("straggler = %v, want 2.0", topo.StragglerOf(3))
	}
}

func TestParseTopologyPositionalErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"no racks", `{}`, "platformbuilder: topology has no racks"},
		{"empty rack", `{"racks":[{"machines":[0]},{"machines":[]}]}`, "platformbuilder: rack 1: no machines"},
		{"bad fabric", `{"racks":[{"machines":[0],"fabric":"quantum"}]}`,
			`platformbuilder: rack 0: unknown fabric "quantum" (sim or tcp)`},
		{"negative id", `{"racks":[{"machines":[-1]}]}`, "platformbuilder: rack 0: negative machine id -1"},
		{"bad straggler", `{"racks":[{"machines":[0]}],"stragglers":[{"machine":0,"mult":0.5}]}`,
			"platformbuilder: straggler 0: multiplier must be ≥ 1, got 0.5"},
		{"straggler unknown", `{"racks":[{"machines":[0,1]}],"stragglers":[{"machine":5,"mult":2}]}`,
			"platformbuilder: straggler on unknown machine 5 (2 machines)"},
		{"duplicate id", `{"racks":[{"machines":[0]},{"machines":[0]}]}`,
			"platformbuilder: duplicate machine id 0"},
		{"sparse ids", `{"racks":[{"machines":[0]},{"machines":[2]}]}`,
			"platformbuilder: machine ids must be dense 0..1, got 2"},
		{"misspelt spine", `{"racks":[{"machines":[0]}],"spline":{"hop_ns":1}}`,
			`platformbuilder: parse topology: json: unknown field "spline"`},
		{"unknown rack key", `{"racks":[{"machines":[0],"fabirc":"tcp"}]}`,
			`platformbuilder: parse topology: json: unknown field "fabirc"`},
		{"unknown link key", `{"racks":[{"machines":[0]}],"tor":{"hop_ns":1,"gbs":2}}`,
			`platformbuilder: parse topology: json: unknown field "gbs"`},
		{"trailing data", `{"racks":[{"machines":[0]}]} {}`,
			"platformbuilder: parse topology: data after the topology object"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseTopology([]byte(c.in))
			if err == nil {
				t.Fatal("expected error")
			}
			if err.Error() != c.want {
				t.Errorf("error = %q, want %q", err.Error(), c.want)
			}
		})
	}
}

func TestResolve(t *testing.T) {
	b, err := Resolve("two-rack", 6)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "two-rack" || b.Machines() != 6 {
		t.Errorf("recipe resolve: name=%q machines=%d", b.Name(), b.Machines())
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "topo.json")
	if err := os.WriteFile(path, []byte(sampleTopology), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err = Resolve(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Machines() != 4 {
		t.Errorf("file resolve machines = %d, want 4", b.Machines())
	}
	if _, err := Resolve(path, 8); err == nil || !strings.Contains(err.Error(), "defines 4 machines, run asked for 8") {
		t.Errorf("machine-count conflict error = %v", err)
	}
	if _, err := Resolve(filepath.Join(dir, "missing.json"), 0); err == nil {
		t.Error("missing file did not error")
	}
}

// Every topology example in PLATFORMS.md parses under the strict decoder.
func TestPlatformsDocExamplesParse(t *testing.T) {
	doc, err := os.ReadFile("../../PLATFORMS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(string(doc), "```json\n")[1:]
	if len(blocks) == 0 {
		t.Fatal("PLATFORMS.md has no JSON example")
	}
	for i, b := range blocks {
		body, _, _ := strings.Cut(b, "```")
		if _, err := ParseTopology([]byte(body)); err != nil {
			t.Errorf("example %d: %v", i, err)
		}
	}
}
