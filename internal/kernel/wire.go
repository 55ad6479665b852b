package kernel

// Both page-table replies (auth and replica auth) carry page records in
// strictly increasing VPN order — the order of the registration's
// snapshot — and the decoders reject anything else (out of order or a
// duplicate VPN) with ErrRecordOrder, so a decoded page table is always a
// valid binary-search table. The bytes may have crossed a real TCP fabric,
// so every decoder reads through a wire.Reader and rejects malformed input
// with an error rather than panic or over-allocate.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rmmap/internal/memsim"
	"rmmap/internal/wire"
)

// ErrRecordOrder rejects a page-table reply whose records are not strictly
// VPN-increasing.
var ErrRecordOrder = errors.New("kernel: page records not in strictly increasing VPN order")

// checkOrder validates that pages are strictly VPN-increasing.
func checkOrder(pages []memsim.PageRef) error {
	for i := 1; i < len(pages); i++ {
		if pages[i].VPN <= pages[i-1].VPN {
			return fmt.Errorf("%w: record %d vpn %#x after %#x", ErrRecordOrder, i, pages[i].VPN, pages[i-1].VPN)
		}
	}
	return nil
}

// authRequest encodes an AuthEndpoint request:
//
//	id u64 | key u64 | start u64 | end u64 | consumer u64
func authRequest(id FuncID, key Key, start, end uint64, consumer FuncID) []byte {
	b := make([]byte, 0, 40)
	b = binary.LittleEndian.AppendUint64(b, uint64(id))
	b = binary.LittleEndian.AppendUint64(b, uint64(key))
	b = binary.LittleEndian.AppendUint64(b, start)
	b = binary.LittleEndian.AppendUint64(b, end)
	return binary.LittleEndian.AppendUint64(b, uint64(consumer))
}

// authResponse is the decoded reply of AuthEndpoint: the registration
// generation, the producer's authoritative backup list, and the VPN-ordered
// snapshot page table for the requested range.
type authResponse struct {
	gen     uint64
	backups []memsim.MachineID
	pages   []memsim.PageRef // never nil, even when empty
}

// parseAuthResponse decodes an AuthEndpoint reply (encoded by handleAuth).
func parseAuthResponse(resp []byte) (authResponse, error) {
	r := wire.NewReader(resp)
	count := r.U32()
	ar := authResponse{gen: r.U64()}
	if nback := r.Count(uint64(r.U16()), 8); nback > 0 {
		ar.backups = make([]memsim.MachineID, nback)
		for i := range ar.backups {
			ar.backups[i] = memsim.MachineID(r.U64())
		}
	}
	ar.pages = make([]memsim.PageRef, r.Count(uint64(count), 16))
	for i := range ar.pages {
		ar.pages[i] = memsim.PageRef{VPN: memsim.VPN(r.U64()), PFN: memsim.PFN(r.U64())}
	}
	if !r.Done() {
		return authResponse{}, fmt.Errorf("kernel: bad auth response length")
	}
	if err := checkOrder(ar.pages); err != nil {
		return authResponse{}, err
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

// parseReplicaAuthResponse decodes a ReplicaEndpoint reply (encoded by
// handleReplicaAuth).
func parseReplicaAuthResponse(resp []byte) (replicaAuthResponse, error) {
	r := wire.NewReader(resp)
	ra := replicaAuthResponse{gen: r.U64(), complete: r.U8() == 1}
	count := r.Count(uint64(r.U32()), 24)
	ra.logical = make([]memsim.PageRef, count)
	ra.phys = make([]memsim.PageRef, count)
	for i := range ra.logical {
		vpn := memsim.VPN(r.U64())
		ra.logical[i] = memsim.PageRef{VPN: vpn, PFN: memsim.PFN(r.U64())}
		ra.phys[i] = memsim.PageRef{VPN: vpn, PFN: memsim.PFN(r.U64())}
	}
	if !r.Done() {
		return replicaAuthResponse{}, fmt.Errorf("kernel: bad replica auth response length")
	}
	if err := checkOrder(ra.logical); err != nil {
		return replicaAuthResponse{}, err
	}
	return ra, nil
}
