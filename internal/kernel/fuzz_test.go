package kernel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"rmmap/internal/memsim"
)

// encodeAuthResponse encodes an auth reply with its records in slice
// order — the round-trip oracle for FuzzAuthWire, and a way to build
// out-of-order seeds.
func encodeAuthResponse(ar authResponse) []byte {
	hdr := 14 + 8*len(ar.backups)
	out := make([]byte, hdr, hdr+16*len(ar.pages))
	binary.LittleEndian.PutUint32(out, uint32(len(ar.pages)))
	binary.LittleEndian.PutUint64(out[4:], ar.gen)
	binary.LittleEndian.PutUint16(out[12:], uint16(len(ar.backups)))
	for i, b := range ar.backups {
		binary.LittleEndian.PutUint64(out[14+8*i:], uint64(b))
	}
	for _, p := range ar.pages {
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[:], uint64(p.VPN))
		binary.LittleEndian.PutUint64(rec[8:], uint64(p.PFN))
		out = append(out, rec[:]...)
	}
	return out
}

func encodeReplicaAuthResponse(ra replicaAuthResponse) []byte {
	out := make([]byte, 13, 13+24*len(ra.logical))
	binary.LittleEndian.PutUint64(out, ra.gen)
	if ra.complete {
		out[8] = 1
	}
	binary.LittleEndian.PutUint32(out[9:], uint32(len(ra.logical)))
	for i, p := range ra.logical {
		var rec [24]byte
		binary.LittleEndian.PutUint64(rec[:], uint64(p.VPN))
		binary.LittleEndian.PutUint64(rec[8:], uint64(p.PFN))
		binary.LittleEndian.PutUint64(rec[16:], uint64(ra.phys[i].PFN))
		out = append(out, rec[:]...)
	}
	return out
}

// increasing reports whether the count records of the given stride at
// data[off:] carry strictly increasing leading VPNs.
func increasing(data []byte, off, stride, count int) bool {
	for i := 1; i < count; i++ {
		if binary.LittleEndian.Uint64(data[off+stride*i:]) <= binary.LittleEndian.Uint64(data[off+stride*(i-1):]) {
			return false
		}
	}
	return true
}

// checkDecodeSpec asserts a decoder's verdict on data: a reply of the
// wrong length is rejected for its length, a well-sized one is accepted
// exactly when its records are strictly VPN-increasing, and otherwise
// rejected with ErrRecordOrder.
func checkDecodeSpec(t *testing.T, what string, err error, sized, ordered bool) {
	t.Helper()
	switch {
	case !sized && (err == nil || errors.Is(err, ErrRecordOrder)):
		t.Fatalf("%s: mis-sized reply: err = %v, want a length error", what, err)
	case sized && ordered && err != nil:
		t.Fatalf("%s: ordered reply rejected: %v", what, err)
	case sized && !ordered && !errors.Is(err, ErrRecordOrder):
		t.Fatalf("%s: unordered reply: err = %v, want ErrRecordOrder", what, err)
	}
}

// sameAsOracle fails t unless a decoder and its pre-port oracle
// (oracle_test.go) agree on the verdict, the ErrRecordOrder class, and
// the decoded value.
func sameAsOracle(t *testing.T, what string, got, want any, err, oldErr error) {
	t.Helper()
	if (err == nil) != (oldErr == nil) || errors.Is(err, ErrRecordOrder) != errors.Is(oldErr, ErrRecordOrder) {
		t.Fatalf("%s: err %v, oracle %v", what, err, oldErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %+v, oracle %+v", what, got, want)
	}
}

// FuzzAuthWire throws arbitrary bytes at both kernel wire decoders (the
// rmap auth reply and the replica-auth reply). Neither may panic or
// over-allocate. Each must accept exactly the well-sized replies whose
// records are strictly VPN-increasing — out-of-order and duplicate VPNs
// are rejected with ErrRecordOrder — and an accepted reply must re-encode
// to the bytes it came from (the replica's complete flag up to
// normalization to 0/1). Each must also agree with its pre-port oracle.
func FuzzAuthWire(f *testing.F) {
	// Minimal valid auth reply: count=0, gen=1, nback=0.
	f.Add(append([]byte{0, 0, 0, 0}, append([]byte{1, 0, 0, 0, 0, 0, 0, 0}, 0, 0)...))
	// One page, one backup.
	f.Add(encodeAuthResponse(authResponse{
		gen:     2,
		backups: []memsim.MachineID{3},
		pages:   []memsim.PageRef{{VPN: 4, PFN: 5}},
	}))
	// Duplicate and out-of-order records.
	f.Add(encodeAuthResponse(authResponse{gen: 2, pages: []memsim.PageRef{{VPN: 4, PFN: 5}, {VPN: 4, PFN: 6}}}))
	f.Add(encodeAuthResponse(authResponse{gen: 2, pages: []memsim.PageRef{{VPN: 9, PFN: 5}, {VPN: 4, PFN: 6}}}))
	// Minimal valid replica reply: gen=1, complete, count=0.
	f.Add(encodeReplicaAuthResponse(replicaAuthResponse{gen: 1, complete: true}))
	f.Add(encodeReplicaAuthResponse(replicaAuthResponse{
		gen: 9, complete: false,
		logical: []memsim.PageRef{{VPN: 7, PFN: 8}},
		phys:    []memsim.PageRef{{VPN: 7, PFN: 11}},
	}))
	f.Add(encodeReplicaAuthResponse(replicaAuthResponse{
		gen: 9, complete: true,
		logical: []memsim.PageRef{{VPN: 7, PFN: 8}, {VPN: 7, PFN: 9}},
		phys:    []memsim.PageRef{{VPN: 7, PFN: 11}, {VPN: 7, PFN: 12}},
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ar, err := parseAuthResponse(data)
		oldAR, oldErr := oldParseAuthResponse(data)
		sameAsOracle(t, "auth", ar, oldAR, err, oldErr)
		sized, ordered := false, false
		if len(data) >= 14 {
			count := int(binary.LittleEndian.Uint32(data))
			hdr := 14 + 8*int(binary.LittleEndian.Uint16(data[12:]))
			sized = len(data) == hdr+16*count
			ordered = sized && increasing(data, hdr, 16, count)
		}
		checkDecodeSpec(t, "auth", err, sized, ordered)
		if err == nil {
			if ar.gen != binary.LittleEndian.Uint64(data[4:]) {
				t.Fatalf("auth gen mismatch")
			}
			if !bytes.Equal(encodeAuthResponse(ar), data) {
				t.Fatalf("auth round trip not exact")
			}
		}

		ra, err := parseReplicaAuthResponse(data)
		oldRA, oldErr := oldParseReplicaAuthResponse(data)
		sameAsOracle(t, "replica", ra, oldRA, err, oldErr)
		sized, ordered = false, false
		if len(data) >= 13 {
			count := int(binary.LittleEndian.Uint32(data[9:]))
			sized = len(data) == 13+24*count
			ordered = sized && increasing(data, 13, 24, count)
		}
		checkDecodeSpec(t, "replica", err, sized, ordered)
		if err == nil {
			if ra.gen != binary.LittleEndian.Uint64(data) {
				t.Fatalf("replica gen mismatch")
			}
			enc := encodeReplicaAuthResponse(ra)
			if !bytes.Equal(enc[:8], data[:8]) || !bytes.Equal(enc[9:], data[9:]) || ra.complete != (data[8] == 1) {
				t.Fatalf("replica round trip not exact")
			}
		}
	})
}
