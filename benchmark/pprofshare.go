package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for the few fields of a gzipped profile.proto (the format
// runtime/pprof writes) that attributing CPU samples to layers needs:
// samples' location ids and first value, locations' lines, functions'
// names, and the string table. It exists so the ledger needs neither a
// module dependency nor a `go tool pprof` subprocess.

var errProfile = errors.New("malformed profile")

// pbField is one decoded protobuf field: a varint (wire type 0) in val, or
// a length-delimited payload (wire type 2) in data.
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProfile
}

// pbNext decodes the field at the head of b and returns the rest.
func pbNext(b []byte) (pbField, []byte, error) {
	key, b, err := pbVarint(b)
	if err != nil {
		return pbField{}, nil, err
	}
	f := pbField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.val, b, err = pbVarint(b)
		return f, b, err
	case 1:
		if len(b) < 8 {
			return f, nil, errProfile
		}
		return f, b[8:], nil
	case 2:
		n, rest, err := pbVarint(b)
		if err != nil || n > uint64(len(rest)) {
			return f, nil, errProfile
		}
		f.data = rest[:n]
		return f, rest[n:], nil
	case 5:
		if len(b) < 4 {
			return f, nil, errProfile
		}
		return f, b[4:], nil
	}
	return f, nil, errProfile
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64
}

// cpuShares charges every sample of a CPU profile to a layer and returns
// each layer's share in percent. A sample belongs to the package of the
// leaf-most rmmap/internal/<pkg> frame on its stack, so memmove and
// mallocgc go to the layer that called them. A stack with no module frame
// at all is the runtime working in the background (runtime_bg); one whose
// leaf-most module frame is the harness itself, or an internal package
// outside sharePackages, is "other".
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	var samples []profSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string
	for b := raw; len(b) > 0; {
		var f pbField
		if f, b, err = pbNext(b); err != nil {
			return nil, err
		}
		if f.wire != 2 {
			continue
		}
		switch f.num {
		case 2: // Sample
			var s profSample
			var values []uint64
			for m := f.data; len(m) > 0; {
				var sf pbField
				if sf, m, err = pbNext(m); err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					if s.locs, err = pbUints(sf, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if values, err = pbUints(sf, values); err != nil {
						return nil, err
					}
				}
			}
			if len(values) > 0 {
				s.value = int64(values[0]) // samples/count
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for m := f.data; len(m) > 0; {
				var lf pbField
				if lf, m, err = pbNext(m); err != nil {
					return nil, err
				}
				switch {
				case lf.num == 1 && lf.wire == 0:
					id = lf.val
				case lf.num == 4 && lf.wire == 2: // Line
					for l := lf.data; len(l) > 0; {
						var ff pbField
						if ff, l, err = pbNext(l); err != nil {
							return nil, err
						}
						if ff.num == 1 && ff.wire == 0 {
							fns = append(fns, ff.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			for m := f.data; len(m) > 0; {
				var ff pbField
				if ff, m, err = pbNext(m); err != nil {
					return nil, err
				}
				if ff.wire == 0 && ff.num == 1 {
					id = ff.val
				}
				if ff.wire == 0 && ff.num == 2 {
					name = ff.val
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}

	known := make(map[string]bool, len(sharePackages))
	for _, p := range sharePackages {
		known[p] = true
	}
	layerOf := func(s profSample) string {
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					continue
				}
				name := strs[idx]
				if rest, ok := strings.CutPrefix(name, "rmmap/internal/"); ok {
					if pkg, _, _ := strings.Cut(rest, "."); known[pkg] {
						return pkg
					}
					return "other"
				}
				if strings.HasPrefix(name, "main.") {
					return "other"
				}
			}
		}
		return "runtime_bg"
	}

	shares := make(map[string]float64)
	var total float64
	for _, s := range samples {
		shares[layerOf(s)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile: no samples")
	}
	out := make(map[string]float64)
	for _, m := range shareMetrics {
		out[m.Name] = 100 * shares[strings.TrimPrefix(m.Name, "cpu_share.")] / total
	}
	return out, nil
}
