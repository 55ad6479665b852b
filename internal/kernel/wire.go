package kernel

// Pure wire decoders for the kernel's RPC replies. Factored out of the
// call sites so they can be fuzzed directly: both run on bytes that crossed
// a (possibly real TCP) fabric, so they must reject any malformed input
// with an error rather than panic or over-allocate.
//
// Both replies carry page records in strictly increasing VPN order — the
// order of the registration's snapshot — and the decoders reject anything
// else (out of order or a duplicate VPN) with ErrRecordOrder, so a decoded
// page table is always a valid binary-search table.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rmmap/internal/memsim"
)

// ErrRecordOrder rejects a page-table reply whose records are not strictly
// VPN-increasing.
var ErrRecordOrder = errors.New("kernel: page records not in strictly increasing VPN order")

// checkOrder validates record i's VPN against its predecessor's.
func checkOrder(i int, vpn memsim.VPN, prev []memsim.PageRef) error {
	if i > 0 && vpn <= prev[i-1].VPN {
		return fmt.Errorf("%w: record %d vpn %#x after %#x", ErrRecordOrder, i, vpn, prev[i-1].VPN)
	}
	return nil
}

// authResponse is the decoded reply of AuthEndpoint: the registration
// generation, the producer's authoritative backup list, and the VPN-ordered
// snapshot page table for the requested range.
type authResponse struct {
	gen     uint64
	backups []memsim.MachineID
	pages   []memsim.PageRef // never nil, even when empty
}

// parseAuthResponse decodes an AuthEndpoint reply:
//
//	count u32 | gen u64 | nback u16 | nback×(backup u64) | count×(vpn u64, pfn u64)
func parseAuthResponse(resp []byte) (authResponse, error) {
	if len(resp) < 14 {
		return authResponse{}, fmt.Errorf("kernel: bad auth response")
	}
	count := int(binary.LittleEndian.Uint32(resp))
	gen := binary.LittleEndian.Uint64(resp[4:])
	nback := int(binary.LittleEndian.Uint16(resp[12:]))
	hdr := 14 + 8*nback
	if len(resp) != hdr+16*count {
		return authResponse{}, fmt.Errorf("kernel: bad auth response length")
	}
	ar := authResponse{gen: gen}
	if nback > 0 {
		ar.backups = make([]memsim.MachineID, nback)
		for i := 0; i < nback; i++ {
			ar.backups[i] = memsim.MachineID(binary.LittleEndian.Uint64(resp[14+8*i:]))
		}
	}
	ar.pages = make([]memsim.PageRef, count)
	for i := range ar.pages {
		rec := resp[hdr+16*i:]
		vpn := memsim.VPN(binary.LittleEndian.Uint64(rec))
		if err := checkOrder(i, vpn, ar.pages); err != nil {
			return authResponse{}, err
		}
		ar.pages[i] = memsim.PageRef{VPN: vpn, PFN: memsim.PFN(binary.LittleEndian.Uint64(rec[8:]))}
	}
	return ar, nil
}

// replicaAuthResponse is the decoded reply of ReplicaEndpoint: the replica
// generation, whether replication had caught up to the registration's
// watermark, and the VPN-ordered logical (producer PFN) and physical
// (backup PFN) page tables.
type replicaAuthResponse struct {
	gen      uint64
	complete bool
	logical  []memsim.PageRef
	phys     []memsim.PageRef
}

// parseReplicaAuthResponse decodes a ReplicaEndpoint reply:
//
//	gen u64 | complete u8 | count u32 | count×(vpn u64, producer pfn u64, backup pfn u64)
func parseReplicaAuthResponse(resp []byte) (replicaAuthResponse, error) {
	if len(resp) < 13 {
		return replicaAuthResponse{}, fmt.Errorf("kernel: bad replica auth response")
	}
	gen := binary.LittleEndian.Uint64(resp)
	complete := resp[8] == 1
	count := int(binary.LittleEndian.Uint32(resp[9:]))
	if len(resp) != 13+24*count {
		return replicaAuthResponse{}, fmt.Errorf("kernel: bad replica auth response length")
	}
	ra := replicaAuthResponse{
		gen: gen, complete: complete,
		logical: make([]memsim.PageRef, count),
		phys:    make([]memsim.PageRef, count),
	}
	for i := 0; i < count; i++ {
		rec := resp[13+24*i:]
		vpn := memsim.VPN(binary.LittleEndian.Uint64(rec))
		if err := checkOrder(i, vpn, ra.logical); err != nil {
			return replicaAuthResponse{}, err
		}
		ra.logical[i] = memsim.PageRef{VPN: vpn, PFN: memsim.PFN(binary.LittleEndian.Uint64(rec[8:]))}
		ra.phys[i] = memsim.PageRef{VPN: vpn, PFN: memsim.PFN(binary.LittleEndian.Uint64(rec[16:]))}
	}
	return ra, nil
}
