package kernel

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
	"rmmap/internal/wire"
)

// Lease-based liveness (§6 fault tolerance extension).
//
// Every kernel holds a soft-state lease per peer machine, renewed by
// periodic heartbeat probes (the platform drives them on the simulator).
// Three peer states fall out:
//
//	fresh   — a probe succeeded within the TTL; reads proceed untouched.
//	suspect — the lease aged out without crash evidence (a partition, an
//	          overloaded peer). Reads must revalidate: re-auth the specific
//	          registration and fence on generation equality. A generation
//	          mismatch is ErrStaleGeneration — terminal, because frames of
//	          the old generation may already be reclaimed or reused.
//	dead    — a probe (or any RPC) returned ErrMachineCrashed. Terminal;
//	          consumers fail over to a replica proactively instead of
//	          discovering the crash on the read path.
type leaseState struct {
	expires simtime.Time
	dead    bool
	// expired marks that OnLeaseExpired already fired for this aging-out,
	// so the broadcast happens once per expiry, like OnDeregister.
	expired bool
}

// EnableLeases turns on the lease table with the given TTL (≤ 0 disables).
func (k *Kernel) EnableLeases(ttl simtime.Duration) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if ttl <= 0 {
		k.leaseTTL = 0
		k.leases = nil
		return
	}
	k.leaseTTL = ttl
	if k.leases == nil {
		k.leases = make(map[memsim.MachineID]*leaseState)
	}
	if k.hbMeter == nil {
		k.hbMeter = simtime.NewMeter()
	}
}

// LeasesEnabled reports whether the lease table is active.
func (k *Kernel) LeasesEnabled() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.leaseTTL > 0
}

// HeartbeatMeter exposes the background meter heartbeat probes charge
// (CatHeartbeat); nil until leases are enabled.
func (k *Kernel) HeartbeatMeter() *simtime.Meter { return k.hbMeter }

// LeaseExpiries counts leases that aged out without crash evidence.
func (k *Kernel) LeaseExpiries() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.leaseExpiries
}

// Failovers counts consumer mappings this kernel re-pointed at a replica.
func (k *Kernel) Failovers() int64 { return k.failovers.Load() }

func (k *Kernel) lease(peer memsim.MachineID) *leaseState {
	st, ok := k.leases[peer]
	if !ok {
		st = &leaseState{}
		k.leases[peer] = st
	}
	return st
}

// RenewLease marks a successful probe of peer: its lease is fresh for
// another TTL and any suspect state clears (death does not).
func (k *Kernel) RenewLease(peer memsim.MachineID) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.leaseTTL <= 0 {
		return
	}
	st := k.lease(peer)
	if st.dead {
		return
	}
	st.expires = k.now() + simtime.Time(k.leaseTTL)
	st.expired = false
}

// ProbeFailed records a failed probe of peer. ErrMachineCrashed proves
// death (OnPeerDead fires once); any other failure merely lets the lease
// age — when it passes the TTL the peer becomes suspect and
// OnLeaseExpired fires once per expiry.
func (k *Kernel) ProbeFailed(peer memsim.MachineID, err error) {
	k.mu.Lock()
	if k.leaseTTL <= 0 {
		k.mu.Unlock()
		return
	}
	st := k.lease(peer)
	if st.dead {
		k.mu.Unlock()
		return
	}
	if errors.Is(err, memsim.ErrMachineCrashed) {
		st.dead = true
		cb := k.OnPeerDead
		k.mu.Unlock()
		if cb != nil {
			cb(peer)
		}
		return
	}
	if !st.expired && k.now() >= st.expires {
		st.expired = true
		k.leaseExpiries++
		cb := k.OnLeaseExpired
		k.mu.Unlock()
		if cb != nil {
			cb(peer)
		}
		return
	}
	k.mu.Unlock()
}

// PeerDead reports whether a probe proved peer crashed.
func (k *Kernel) PeerDead(peer memsim.MachineID) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.leaseTTL <= 0 {
		return false
	}
	st, ok := k.leases[peer]
	return ok && st.dead
}

// LeaseSuspect reports whether peer's lease has aged out without crash
// evidence (reads must revalidate before trusting the mapping).
func (k *Kernel) LeaseSuspect(peer memsim.MachineID) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.leaseTTL <= 0 {
		return false
	}
	st, ok := k.leases[peer]
	return ok && !st.dead && st.expired
}

// MarkPeerDead records third-party proof (a gossiped death certificate)
// that peer crashed, firing OnPeerDead exactly as a direct failed probe
// would. Certificates naming this machine itself are ignored.
func (k *Kernel) MarkPeerDead(peer memsim.MachineID) {
	if peer == k.machine.ID() {
		return
	}
	k.mu.Lock()
	if k.leaseTTL <= 0 {
		k.mu.Unlock()
		return
	}
	st := k.lease(peer)
	if st.dead {
		k.mu.Unlock()
		return
	}
	st.dead = true
	cb := k.OnPeerDead
	k.mu.Unlock()
	if cb != nil {
		cb(peer)
	}
}

// DeadPeers returns the machines this kernel holds death certificates
// for, in ascending ID order (the deterministic gossip payload).
func (k *Kernel) DeadPeers() []memsim.MachineID {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.deadPeersLocked()
}

func (k *Kernel) deadPeersLocked() []memsim.MachineID {
	var dead []memsim.MachineID
	for peer, st := range k.leases {
		if st.dead {
			dead = append(dead, peer)
		}
	}
	for i := 1; i < len(dead); i++ {
		for j := i; j > 0 && dead[j] < dead[j-1]; j-- {
			dead[j], dead[j-1] = dead[j-1], dead[j]
		}
	}
	return dead
}

// appendCerts frames death certificates: u16 n | n × u32 machine.
func appendCerts(b []byte, dead []memsim.MachineID) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(dead)))
	for _, m := range dead {
		b = binary.LittleEndian.AppendUint32(b, uint32(m))
	}
	return b
}

// decodeCerts parses a certificate frame; a short or absent frame means
// no certificates (the pre-gossip wire format).
func decodeCerts(b []byte) []memsim.MachineID {
	r := wire.NewReader(b)
	dead := make([]memsim.MachineID, r.Count(uint64(r.U16()), 4))
	for i := range dead {
		dead[i] = memsim.MachineID(int32(r.U32()))
	}
	if r.Err() != nil {
		return nil
	}
	return dead
}

// Heartbeat probes peer once on this kernel's transport, charging the
// background heartbeat meter under CatHeartbeat, and updates the lease
// table from the outcome. The probe doubles as SWIM-lite gossip: the
// request piggybacks this kernel's death certificates and the response
// carries the peer's, so crash evidence spreads peer-to-peer without a
// central scan — which is what keeps detection working while the
// coordinator is down. Only death certificates travel; lease renewals
// stay strictly first-hand, because second-hand freshness would mask
// asymmetric partitions. The platform's failure detector calls this
// every HeartbeatPeriod; kernel tests may drive it by hand.
func (k *Kernel) Heartbeat(peer memsim.MachineID) error {
	k.mu.Lock()
	m := k.hbMeter
	enabled := k.leaseTTL > 0
	certs := k.deadPeersLocked()
	k.mu.Unlock()
	if !enabled || peer == k.machine.ID() {
		return nil
	}
	var req []byte
	if len(certs) > 0 {
		req = appendCerts(make([]byte, 0, 2+4*len(certs)), certs)
	}
	resp, err := k.transport.CallCat(m, simtime.CatHeartbeat, peer, LeaseEndpoint, req)
	if err != nil {
		k.ProbeFailed(peer, err)
		return err
	}
	k.RenewLease(peer)
	if len(resp) > 8 {
		for _, dead := range decodeCerts(resp[8:]) {
			k.MarkPeerDead(dead)
		}
	}
	return nil
}

// lease request: optional death certificates (u16 n | n × u32 machine);
// nil/empty means none (the pre-gossip format).
// lease response: gen u64 — the probed machine's current registration
// generation, proof of liveness and a cheap staleness hint — followed by
// the responder's own death certificates.
func (k *Kernel) handleLease(m *simtime.Meter, req []byte) ([]byte, error) {
	if k.machine.Crashed() {
		return nil, fmt.Errorf("%w: machine %d", memsim.ErrMachineCrashed, k.machine.ID())
	}
	for _, dead := range decodeCerts(req) {
		k.MarkPeerDead(dead)
	}
	k.mu.Lock()
	gen := k.memGen
	certs := k.deadPeersLocked()
	k.mu.Unlock()
	resp := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+2+4*len(certs)), gen)
	return appendCerts(resp, certs), nil
}
