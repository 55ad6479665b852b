package platformbuilder

import (
	"fmt"
	"sort"
	"strings"
)

// A recipe is a named platform shape, parameterized by machine count so
// CLIs can say `-topology spine-leaf -machines 16` and experiments can
// sweep sizes. Machines are distributed over the recipe's racks in
// contiguous blocks (rack 0 gets the first ⌈N/R⌉ IDs and so on), so a
// recipe's rack membership is obvious from the machine ID alone.
type recipe struct {
	racks int
	build func(b *Builder, machines int) *Builder
}

var recipes = map[string]recipe{
	// one rack, uniform link cost — the classic pre-topology cluster.
	"flat": {
		racks: 1,
		build: func(b *Builder, machines int) *Builder { return b },
	},
	// two racks behind one spine hop, default 100 Gbps ToR / oversubscribed 6.4 Gbps spine links.
	"two-rack": {
		racks: 2,
		build: func(b *Builder, machines int) *Builder {
			return b.WithToRLinks(DefaultToRLink.Hop, DefaultToRLink.GBps).
				WithSpine(DefaultSpineLink.Hop, DefaultSpineLink.GBps)
		},
	},
	// four racks in a leaf-spine fabric with an oversubscribed spine.
	"spine-leaf": {
		racks: 4,
		build: func(b *Builder, machines int) *Builder {
			return b.WithToRLinks(DefaultToRLink.Hop, DefaultToRLink.GBps).
				WithSpine(DefaultSpineLink.Hop, DefaultSpineLink.GBps)
		},
	},
	// spine-leaf with mixed fabrics: in-process intra-rack, real loopback TCP cross-rack.
	"spine-leaf-tcp": {
		racks: 4,
		build: func(b *Builder, machines int) *Builder {
			return b.WithToRLinks(DefaultToRLink.Hop, DefaultToRLink.GBps).
				WithSpine(DefaultSpineLink.Hop, DefaultSpineLink.GBps).
				WithCrossRackTCP()
		},
	},
	// two racks with the last machine a 3× straggler.
	"straggler": {
		racks: 2,
		build: func(b *Builder, machines int) *Builder {
			return b.WithToRLinks(DefaultToRLink.Hop, DefaultToRLink.GBps).
				WithSpine(DefaultSpineLink.Hop, DefaultSpineLink.GBps).
				WithStraggler(machines-1, 3.0)
		},
	},
}

// Recipes lists recipe names in sorted order, for the CLI's
// unknown-recipe error.
func Recipes() []string {
	names := make([]string, 0, len(recipes))
	for n := range recipes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Recipe returns a fresh builder for a named recipe sized to machines
// (0 = the recipe's natural minimum, two machines per rack). The machine
// count is rounded up to at least one machine per rack.
func Recipe(name string, machines int) (*Builder, error) {
	r, ok := recipes[name]
	if !ok {
		return nil, fmt.Errorf("platformbuilder: unknown recipe %q (have: %s)", name, strings.Join(Recipes(), ", "))
	}
	if machines <= 0 {
		machines = 2 * r.racks
	}
	if machines < r.racks {
		machines = r.racks
	}
	b := NewBuilder().WithName(name).WithRacks(r.racks)
	per := (machines + r.racks - 1) / r.racks
	b = r.build(b, machines)
	// Explicit placement so the machine count is exact even when it does
	// not divide evenly: contiguous blocks of ⌈N/R⌉, last rack short.
	for id := 0; id < machines; id++ {
		b = b.WithMachine(id, id/per)
	}
	return b, nil
}

// Resolve interprets a CLI -topology argument: a recipe name, or a path to
// a JSON topology file (anything containing a path separator or ending in
// .json). The machines hint sizes recipes; files carry their own machine
// sets and reject a conflicting hint.
func Resolve(arg string, machines int) (*Builder, error) {
	if strings.HasSuffix(arg, ".json") || strings.ContainsAny(arg, "/\\") {
		b, err := LoadTopologyFile(arg)
		if err != nil {
			return nil, err
		}
		if machines > 0 && b.Machines() != machines {
			return nil, fmt.Errorf("platformbuilder: topology file %s defines %d machines, run asked for %d", arg, b.Machines(), machines)
		}
		return b, nil
	}
	return Recipe(arg, machines)
}

// Flat returns the trivial one-rack build for n machines — what every
// pre-topology call site means by "a cluster".
func Flat(n int) *Builder {
	b, _ := Recipe("flat", n)
	return b
}
