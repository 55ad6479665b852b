package rdma_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"rmmap/internal/kernel"
	"rmmap/internal/memsim"
	"rmmap/internal/rdma"
	"rmmap/internal/simtime"
)

// Request opcodes of the TCP wire protocol (see TCPFabric).
const (
	opRead  = 1
	opBatch = 2
	opRPC   = 3
	opWrite = 4
)

// frame length-prefixes one request as it travels on the socket.
func frame(op byte, body ...[]byte) []byte {
	msg := []byte{op}
	for _, b := range body {
		msg = append(msg, b...)
	}
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(msg))), msg...)
}

func u32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// rpc frames an opRPC request for endpoint.
func rpc(endpoint string, payload []byte) []byte {
	return frame(opRPC, binary.LittleEndian.AppendUint16(nil, uint16(len(endpoint))), []byte(endpoint), payload)
}

// dispatchRig is a machine with frames 0 and 1 live and frame 2 freed,
// served by a kernel's endpoints on a server with no socket.
func dispatchRig() *rdma.TCPServer {
	cm := simtime.DefaultCostModel()
	m := memsim.NewMachine(1)
	for i := 0; i < 3; i++ {
		m.AllocFrame()
	}
	m.Unref(2)
	s := rdma.NewDetachedServer(m)
	kernel.New(m, rdma.NewTCPNIC(m, rdma.NewTCPFabric(cm)), cm).ServeTCP(s)
	return s
}

// badPFNStreams are requests that name PFN 1<<40 or the freed frame 2:
// each used to panic the serving process inside memsim.Machine.frame.
var badPFNStreams = []struct {
	name   string
	stream []byte
}{
	{"read", frame(opRead, u64(1<<40), u32(0), u32(8))},
	{"read-free", frame(opRead, u64(2), u32(0), u32(8))},
	{"batch", frame(opBatch, u32(1), u64(1<<40), u32(memsim.PageSize))},
	{"write", frame(opWrite, u32(1), u64(1<<40), u32(1), []byte{9})},
	{"page", rpc(kernel.PageEndpoint, u64(1<<40))},
}

// TestDispatchBadPFN: a request for a PFN the machine never allocated, or
// has freed, is answered with memsim.ErrBadPFN.
func TestDispatchBadPFN(t *testing.T) {
	for _, tc := range badPFNStreams {
		errs := dispatchRig().ServeBytes(tc.stream)
		if len(errs) != 1 || !errors.Is(errs[0], memsim.ErrBadPFN) {
			t.Errorf("%s: errors %v, want one ErrBadPFN", tc.name, errs)
		}
	}
	if errs := dispatchRig().ServeBytes(frame(opRead, u64(1), u32(8), u32(16))); len(errs) != 1 || errs[0] != nil {
		t.Errorf("read of a live frame: %v", errs)
	}
}

// FuzzTCPDispatch feeds arbitrary byte streams to a TCP server's request
// loop (readMsg, then dispatch, which reaches the kernel's RPC handlers).
// Bytes off a socket must never take the process down: every malformed
// request is an error reply. testdata/fuzz/FuzzTCPDispatch holds the
// 21-byte opRead of PFN 1<<40 and the rmmap.page RPC for the same PFN,
// both of which used to panic.
func FuzzTCPDispatch(f *testing.F) {
	for _, tc := range badPFNStreams {
		f.Add(tc.stream)
	}
	f.Add(frame(opRead, u64(0), u32(100), u32(50)))
	f.Add(frame(opBatch, u32(2), u64(0), u32(memsim.PageSize), u64(1), u32(64)))
	f.Add(frame(opWrite, u32(1), u64(1), u32(3), []byte{1, 2, 3}))
	f.Add(rpc(kernel.LeaseEndpoint, []byte{1, 0, 7, 0, 0, 0}))
	f.Add(rpc(kernel.AuthEndpoint, make([]byte, 40)))
	f.Add(rpc(kernel.ReplPrepareEndpoint, append(make([]byte, 48), u32(1)...)))
	f.Add(rpc(kernel.ReplicaEndpoint, make([]byte, 48)))
	f.Fuzz(func(t *testing.T, stream []byte) {
		dispatchRig().ServeBytes(stream)
	})
}
