package kernel

// The auth-reply decoders as they were before they read through
// wire.Reader, kept verbatim as the differential oracle for FuzzAuthWire.

import (
	"encoding/binary"
	"fmt"

	"rmmap/internal/memsim"
)

// oldCheckOrder validates record i's VPN against its predecessor's.
func oldCheckOrder(i int, vpn memsim.VPN, prev []memsim.PageRef) error {
	if i > 0 && vpn <= prev[i-1].VPN {
		return fmt.Errorf("%w: record %d vpn %#x after %#x", ErrRecordOrder, i, vpn, prev[i-1].VPN)
	}
	return nil
}

// oldParseAuthResponse decodes an AuthEndpoint reply:
//
//	count u32 | gen u64 | nback u16 | nback×(backup u64) | count×(vpn u64, pfn u64)
func oldParseAuthResponse(resp []byte) (authResponse, error) {
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
		if err := oldCheckOrder(i, vpn, ar.pages); err != nil {
			return authResponse{}, err
		}
		ar.pages[i] = memsim.PageRef{VPN: vpn, PFN: memsim.PFN(binary.LittleEndian.Uint64(rec[8:]))}
	}
	return ar, nil
}

// oldParseReplicaAuthResponse decodes a ReplicaEndpoint reply:
//
//	gen u64 | complete u8 | count u32 | count×(vpn u64, producer pfn u64, backup pfn u64)
func oldParseReplicaAuthResponse(resp []byte) (replicaAuthResponse, error) {
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
		if err := oldCheckOrder(i, vpn, ra.logical); err != nil {
			return replicaAuthResponse{}, err
		}
		ra.logical[i] = memsim.PageRef{VPN: vpn, PFN: memsim.PFN(binary.LittleEndian.Uint64(rec[8:]))}
		ra.phys[i] = memsim.PageRef{VPN: vpn, PFN: memsim.PFN(binary.LittleEndian.Uint64(rec[16:]))}
	}
	return ra, nil
}
