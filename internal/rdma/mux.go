package rdma

import (
	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// Mux dispatches each remote operation to one of two transports based on
// the target machine — the mixed-fabric building block: a machine keeps a
// SimFabric NIC for intra-rack traffic and a TCPFabric NIC for links the
// topology marks as TCP, and the mux picks per operation. Both inner
// transports must share the owner machine.
type Mux struct {
	a, b  Transport
	pick  func(target memsim.MachineID) bool // true → b
	owner memsim.MachineID
}

// NewMux returns a transport that routes operations to b when
// pickB(target) is true and to a otherwise.
func NewMux(a, b Transport, pickB func(target memsim.MachineID) bool) *Mux {
	return &Mux{a: a, b: b, pick: pickB, owner: a.Owner()}
}

func (x *Mux) route(target memsim.MachineID) Transport {
	if x.pick(target) {
		return x.b
	}
	return x.a
}

// Owner implements Transport.
func (x *Mux) Owner() memsim.MachineID { return x.owner }

// Read implements Transport.
func (x *Mux) Read(m *simtime.Meter, target memsim.MachineID, pfn memsim.PFN, off int, buf []byte) error {
	return x.route(target).Read(m, target, pfn, off, buf)
}

// ReadPages implements Transport.
func (x *Mux) ReadPages(m *simtime.Meter, target memsim.MachineID, reqs []PageRead) error {
	return x.route(target).ReadPages(m, target, reqs)
}

// ReadPagesCat implements Transport.
func (x *Mux) ReadPagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []PageRead) error {
	return x.route(target).ReadPagesCat(m, cat, target, reqs)
}

// WritePages implements Transport.
func (x *Mux) WritePages(m *simtime.Meter, target memsim.MachineID, reqs []PageWrite) error {
	return x.route(target).WritePages(m, target, reqs)
}

// WritePagesCat implements Transport.
func (x *Mux) WritePagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []PageWrite) error {
	return x.route(target).WritePagesCat(m, cat, target, reqs)
}

// Call implements Transport.
func (x *Mux) Call(m *simtime.Meter, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	return x.route(target).Call(m, target, endpoint, req)
}

// CallCat implements Transport.
func (x *Mux) CallCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	return x.route(target).CallCat(m, cat, target, endpoint, req)
}
