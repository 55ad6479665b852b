package platformbuilder

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
)

// topologyJSON is the on-disk topology schema, consumed by the CLIs'
// -topology flag. Durations are nanoseconds, bandwidths GB/s:
//
//	{
//	  "name": "my-pod",
//	  "racks": [
//	    {"machines": [0, 1, 2, 3]},
//	    {"machines": [4, 5, 6, 7], "fabric": "tcp"}
//	  ],
//	  "tor":   {"hop_ns": 250,  "gbps": 12.5},
//	  "spine": {"hop_ns": 2000, "gbps": 3.125},
//	  "cross_rack_tcp": false,
//	  "stragglers": [{"machine": 7, "mult": 3.0}]
//	}
type topologyJSON struct {
	Name  string `json:"name"`
	Racks []struct {
		Machines []int  `json:"machines"`
		Fabric   string `json:"fabric"`
	} `json:"racks"`
	ToR          *linkJSON `json:"tor"`
	Spine        *linkJSON `json:"spine"`
	CrossRackTCP bool      `json:"cross_rack_tcp"`
	Stragglers   []struct {
		Machine int     `json:"machine"`
		Mult    float64 `json:"mult"`
	} `json:"stragglers"`
}

type linkJSON struct {
	HopNS int64   `json:"hop_ns"`
	GBps  float64 `json:"gbps"`
}

// ParseTopology builds a Builder from JSON, validating positionally like
// faults.ParsePlan so errors name the offending entry ("rack 1: …",
// "straggler 0: …"). An unknown key is an error: a misspelt "spine" would
// otherwise silently keep the default spine.
func ParseTopology(data []byte) (*Builder, error) {
	var tj topologyJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tj); err != nil {
		return nil, fmt.Errorf("platformbuilder: parse topology: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("platformbuilder: parse topology: data after the topology object")
	}
	if len(tj.Racks) == 0 {
		return nil, fmt.Errorf("platformbuilder: topology has no racks")
	}
	name := tj.Name
	if name == "" {
		name = "file"
	}
	b := NewBuilder().WithName(name).WithRacks(len(tj.Racks))
	for i, rj := range tj.Racks {
		if len(rj.Machines) == 0 {
			return nil, fmt.Errorf("platformbuilder: rack %d: no machines", i)
		}
		for _, id := range rj.Machines {
			if id < 0 {
				return nil, fmt.Errorf("platformbuilder: rack %d: negative machine id %d", i, id)
			}
			b = b.WithMachine(id, i)
		}
		switch rj.Fabric {
		case "", "sim":
		case "tcp":
			b = b.WithFabric(i, rdma.FabricTCP)
		default:
			return nil, fmt.Errorf("platformbuilder: rack %d: unknown fabric %q (sim or tcp)", i, rj.Fabric)
		}
	}
	if tj.ToR != nil {
		if tj.ToR.HopNS < 0 || tj.ToR.GBps < 0 {
			return nil, fmt.Errorf("platformbuilder: tor: negative link parameters")
		}
		b = b.WithToRLinks(simtime.Duration(tj.ToR.HopNS), tj.ToR.GBps)
	}
	if tj.Spine != nil {
		if tj.Spine.HopNS < 0 || tj.Spine.GBps < 0 {
			return nil, fmt.Errorf("platformbuilder: spine: negative link parameters")
		}
		b = b.WithSpine(simtime.Duration(tj.Spine.HopNS), tj.Spine.GBps)
	}
	if tj.CrossRackTCP {
		b = b.WithCrossRackTCP()
	}
	for i, sj := range tj.Stragglers {
		if sj.Mult < 1 {
			return nil, fmt.Errorf("platformbuilder: straggler %d: multiplier must be ≥ 1, got %v", i, sj.Mult)
		}
		b = b.WithStraggler(sj.Machine, sj.Mult)
	}
	if b.err != nil {
		return nil, b.err
	}
	// Compile once so structural errors (sparse ids, straggler on unknown
	// machine) surface at load time, not first use.
	if _, err := b.Spec(); err != nil {
		return nil, err
	}
	return b, nil
}

// LoadTopologyFile reads and parses a topology JSON file.
func LoadTopologyFile(path string) (*Builder, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("platformbuilder: %w", err)
	}
	return ParseTopology(data)
}
