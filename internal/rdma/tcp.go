package rdma

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
	"rmmap/internal/wire"
)

// TCPFabric moves the same bytes as SimFabric over real TCP sockets. It
// exists to demonstrate that the RMMAP protocol state machine (register →
// fetch page table → fault → read remote frame) runs unmodified across a
// real network boundary; rmmap net uses it. Virtual-time charges are
// applied identically so meters remain meaningful.
//
// Wire protocol (all little-endian, each message length-prefixed u32):
//
//	request:  op u8 | body
//	  op=1 (read):  pfn u64, off u32, n u32
//	  op=2 (batch): count u32, then count × (pfn u64, n u32)
//	  op=3 (rpc):   epLen u16, endpoint, payload
//	  op=4 (write): count u32, then count × (pfn u64, n u32, n bytes)
//	response: status u8 (0 ok, 1 error) | payload-or-error-text
type TCPFabric struct {
	cm *simtime.CostModel

	// DialTimeout bounds connection establishment; IOTimeout bounds each
	// request/response roundtrip so a hung peer surfaces as a timeout error
	// instead of wedging the caller forever. Zero means the defaults.
	DialTimeout time.Duration
	IOTimeout   time.Duration

	mu    sync.Mutex
	addrs map[memsim.MachineID]string
	// epochs counts how many times each machine ID has been (re)served.
	// NICs stamp cached connections with the epoch they dialed under, so a
	// crashed-then-replaced machine ID can never be served by a stale
	// socket that still reaches the old incarnation.
	epochs map[memsim.MachineID]uint64
}

const (
	opRead  = 1
	opBatch = 2
	opRPC   = 3
	opWrite = 4

	defaultDialTimeout = 5 * time.Second
	defaultIOTimeout   = 10 * time.Second
)

// ErrRemote marks an application-level error returned by the remote handler
// (response status 1). The connection that carried it is healthy: callers
// must not evict or redial on ErrRemote, only on transport-level failures.
var ErrRemote = errors.New("rdma/tcp: remote error")

// NewTCPFabric returns a fabric whose charges come from cm.
func NewTCPFabric(cm *simtime.CostModel) *TCPFabric {
	return &TCPFabric{
		cm:     cm,
		addrs:  make(map[memsim.MachineID]string),
		epochs: make(map[memsim.MachineID]uint64),
	}
}

func (f *TCPFabric) dialTimeout() time.Duration {
	if f.DialTimeout > 0 {
		return f.DialTimeout
	}
	return defaultDialTimeout
}

func (f *TCPFabric) ioTimeout() time.Duration {
	if f.IOTimeout > 0 {
		return f.IOTimeout
	}
	return defaultIOTimeout
}

// TCPServer serves one machine's frames and RPC endpoints.
type TCPServer struct {
	machine *memsim.Machine
	ln      net.Listener

	mu       sync.Mutex
	handlers map[string]Handler
	closed   bool
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
}

// Serve starts a server for machine m on addr (use "127.0.0.1:0" to pick a
// free port) and registers its address on the fabric.
func (f *TCPFabric) Serve(m *memsim.Machine, addr string) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{
		machine:  m,
		ln:       ln,
		handlers: make(map[string]Handler),
		conns:    make(map[net.Conn]struct{}),
	}
	f.mu.Lock()
	f.addrs[m.ID()] = ln.Addr().String()
	f.epochs[m.ID()]++
	f.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// HandleFunc registers an RPC endpoint on the server.
func (s *TCPServer) HandleFunc(endpoint string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[endpoint] = h
}

// Addr returns the listening address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and waits for its goroutines: it stops the accept
// loop, closes every in-flight connection (unblocking serveConn readers
// that would otherwise wait on a client forever), and drains them before
// returning. Close is idempotent.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// track registers a live connection; it reports false if the server is
// already closing, in which case the caller must drop the connection.
func (s *TCPServer) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *TCPServer) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// Listener closed by Close, or a fatal accept error: either
			// way the loop ends without spurious noise.
			return
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		req, err := readMsg(r)
		if err != nil {
			return
		}
		resp, herr := s.dispatch(req)
		if herr != nil {
			resp = append([]byte{1}, []byte(herr.Error())...)
		} else {
			resp = append([]byte{0}, resp...)
		}
		if err := writeMsg(w, resp); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *TCPServer) dispatch(req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	switch op := r.U8(); op {
	case opRead:
		pfn := memsim.PFN(r.U64())
		off := int(r.U32())
		n := int(r.U32())
		if !r.Done() {
			return nil, fmt.Errorf("rdma/tcp: bad read request")
		}
		if off+n > memsim.PageSize {
			return nil, fmt.Errorf("rdma/tcp: read out of page bounds")
		}
		buf := make([]byte, n)
		if err := s.machine.ReadFrameErr(pfn, off, buf); err != nil {
			return nil, err
		}
		return buf, nil
	case opBatch:
		count := r.Count(uint64(r.U32()), 12)
		if r.Err() != nil || r.Len() != 12*count {
			return nil, fmt.Errorf("rdma/tcp: bad batch request")
		}
		var out []byte
		for i := 0; i < count; i++ {
			pfn := memsim.PFN(r.U64())
			n := int(r.U32())
			if n > memsim.PageSize {
				return nil, fmt.Errorf("rdma/tcp: batch entry too large")
			}
			buf := make([]byte, n)
			if err := s.machine.ReadFrameErr(pfn, 0, buf); err != nil {
				return nil, err
			}
			out = append(out, buf...)
		}
		return out, nil
	case opWrite:
		count := r.Count(uint64(r.U32()), 12)
		for i := 0; i < count && r.Err() == nil; i++ {
			pfn := memsim.PFN(r.U64())
			n := int(r.U32())
			if n > memsim.PageSize {
				return nil, fmt.Errorf("rdma/tcp: write entry too large")
			}
			if data := r.Bytes(n); data != nil {
				if err := s.machine.WriteFrameErr(pfn, 0, data); err != nil {
					return nil, err
				}
			}
		}
		if !r.Done() {
			return nil, fmt.Errorf("rdma/tcp: bad write request")
		}
		return nil, nil
	case opRPC:
		ep := string(r.Bytes(int(r.U16())))
		if r.Err() != nil {
			return nil, fmt.Errorf("rdma/tcp: bad rpc request")
		}
		s.mu.Lock()
		h := s.handlers[ep]
		s.mu.Unlock()
		if h == nil {
			return nil, fmt.Errorf("%w: %q", ErrNoEndpoint, ep)
		}
		// RPC handlers on the TCP path charge a throwaway meter: the
		// remote side's virtual time is not on this wall-clock path.
		return h(simtime.NewMeter(), r.Bytes(r.Len()))
	default:
		return nil, fmt.Errorf("rdma/tcp: unknown op %d", op)
	}
}

// readStep is the most readMsg reads in one step, and so the most its
// buffer runs ahead of the bytes that have arrived.
const readStep = 64 << 10

// readMsg reads one length-prefixed message. The length is a peer's
// promise, not memory to commit: the buffer grows only as the body
// arrives, so a 4-byte prefix promising 32 MiB costs one readStep.
func readMsg(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	hdr := wire.NewReader(lenBuf[:])
	n := int(hdr.U32())
	if n > 64<<20 {
		return nil, fmt.Errorf("rdma/tcp: message too large: %d", n)
	}
	buf := make([]byte, 0, min(n, readStep))
	for len(buf) < n {
		step := min(n-len(buf), readStep)
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+step]); err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		buf = buf[:len(buf)+step]
	}
	return buf, nil
}

func writeMsg(w io.Writer, msg []byte) error {
	var lenBuf [4]byte
	if _, err := w.Write(binary.LittleEndian.AppendUint32(lenBuf[:0], uint32(len(msg)))); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}

// TCPNIC is a machine's client on a TCPFabric.
type TCPNIC struct {
	owner  memsim.MachineID
	fabric *TCPFabric
	local  *memsim.Machine // fast path for same-machine reads

	mu      sync.Mutex
	conns   map[memsim.MachineID]*tcpConn
	charged map[memsim.MachineID]bool
}

type tcpConn struct {
	mu    sync.Mutex
	conn  net.Conn
	r     *bufio.Reader
	w     *bufio.Writer
	epoch uint64 // fabric epoch of the target when this conn was dialed
}

// NewTCPNIC returns a NIC for machine local on fabric f.
func NewTCPNIC(local *memsim.Machine, f *TCPFabric) *TCPNIC {
	return &TCPNIC{owner: local.ID(), fabric: f, local: local,
		conns: make(map[memsim.MachineID]*tcpConn), charged: make(map[memsim.MachineID]bool)}
}

// chargeConnect charges kernel-space QP establishment on first contact
// with a peer, exactly like the SimFabric NIC, so the two byte transports
// stay virtual-time identical operation for operation.
func (n *TCPNIC) chargeConnect(m *simtime.Meter, target memsim.MachineID) {
	if target == n.owner {
		return
	}
	n.mu.Lock()
	first := !n.charged[target]
	if first {
		n.charged[target] = true
	}
	n.mu.Unlock()
	if first {
		m.Charge(simtime.CatMap, n.fabric.cm.RDMAConnectKernel)
	}
}

// Owner implements Transport.
func (n *TCPNIC) Owner() memsim.MachineID { return n.owner }

// Close drops all cached connections.
func (n *TCPNIC) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.conns {
		c.conn.Close()
	}
	n.conns = make(map[memsim.MachineID]*tcpConn)
}

// conn returns the cached connection to target, dialing (with the fabric's
// dial timeout) if none exists. fresh reports whether this call dialed, so
// the caller skips the pointless redial of an already-fresh connection.
func (n *TCPNIC) conn(target memsim.MachineID) (c *tcpConn, fresh bool, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fabric.mu.Lock()
	addr, ok := n.fabric.addrs[target]
	epoch := n.fabric.epochs[target]
	n.fabric.mu.Unlock()
	if c, ok := n.conns[target]; ok {
		if c.epoch == epoch {
			return c, false, nil
		}
		// The machine ID was re-served since this socket was dialed: the
		// cached connection may still reach the old incarnation (which can
		// even be answering, with stale frames). Never reuse it.
		delete(n.conns, target)
		c.conn.Close()
	}
	if !ok {
		return nil, false, fmt.Errorf("%w: %d", ErrNoMachine, target)
	}
	raw, err := net.DialTimeout("tcp", addr, n.fabric.dialTimeout())
	if err != nil {
		return nil, false, err
	}
	c = &tcpConn{conn: raw, r: bufio.NewReader(raw), w: bufio.NewWriter(raw), epoch: epoch}
	n.conns[target] = c
	return c, true, nil
}

// evict drops a cached connection if it is still the one the caller used
// (a concurrent caller may already have replaced it).
func (n *TCPNIC) evict(target memsim.MachineID, c *tcpConn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.conns[target] == c {
		delete(n.conns, target)
	}
	c.conn.Close()
}

// roundtrip runs one request/response against target. A connection-level
// failure (write error, timeout, short response) on a previously cached
// connection evicts it and retries once on a fresh dial, so one broken
// socket cannot poison every later call. ErrRemote responses pass through
// untouched: the connection is fine, the handler refused.
func (n *TCPNIC) roundtrip(target memsim.MachineID, req []byte) ([]byte, error) {
	c, fresh, err := n.conn(target)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundtrip(n.fabric.ioTimeout(), req)
	if err == nil || errors.Is(err, ErrRemote) {
		return resp, err
	}
	n.evict(target, c)
	if fresh {
		return nil, err
	}
	c, _, derr := n.conn(target)
	if derr != nil {
		return nil, fmt.Errorf("rdma/tcp: redial after %v: %w", err, derr)
	}
	resp, err = c.roundtrip(n.fabric.ioTimeout(), req)
	if err != nil && !errors.Is(err, ErrRemote) {
		n.evict(target, c)
	}
	return resp, err
}

func (c *tcpConn) roundtrip(timeout time.Duration, req []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if err := writeMsg(c.w, req); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	resp, err := readMsg(c.r)
	if err != nil {
		return nil, err
	}
	if len(resp) < 1 {
		return nil, fmt.Errorf("rdma/tcp: empty response")
	}
	if resp[0] != 0 {
		return nil, fmt.Errorf("%w: %s", ErrRemote, resp[1:])
	}
	return resp[1:], nil
}

// Read implements Transport over TCP.
func (n *TCPNIC) Read(m *simtime.Meter, target memsim.MachineID, pfn memsim.PFN, off int, buf []byte) error {
	if target == n.owner {
		n.local.ReadFrame(pfn, off, buf)
		return nil
	}
	req := append(make([]byte, 0, 17), opRead)
	req = binary.LittleEndian.AppendUint64(req, uint64(pfn))
	req = binary.LittleEndian.AppendUint32(req, uint32(off))
	req = binary.LittleEndian.AppendUint32(req, uint32(len(buf)))
	n.chargeConnect(m, target)
	resp, err := n.roundtrip(target, req)
	if err != nil {
		return err
	}
	if len(resp) != len(buf) {
		return fmt.Errorf("rdma/tcp: short read: %d != %d", len(resp), len(buf))
	}
	copy(buf, resp)
	m.Charge(simtime.CatFault, readBase(n.fabric.cm)+simtime.Bytes(len(buf), n.fabric.cm.RDMAPerByte))
	return nil
}

// ReadPages implements Transport over TCP with one roundtrip.
func (n *TCPNIC) ReadPages(m *simtime.Meter, target memsim.MachineID, reqs []PageRead) error {
	return n.ReadPagesCat(m, simtime.CatFault, target, reqs)
}

// ReadPagesCat is ReadPages with an explicit charge category (readahead).
func (n *TCPNIC) ReadPagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []PageRead) error {
	if len(reqs) == 0 {
		return nil
	}
	if target == n.owner {
		for _, r := range reqs {
			n.local.ReadFrame(r.PFN, 0, r.Buf)
		}
		return nil
	}
	req := append(make([]byte, 0, 5+12*len(reqs)), opBatch)
	req = binary.LittleEndian.AppendUint32(req, uint32(len(reqs)))
	total := 0
	for _, r := range reqs {
		req = binary.LittleEndian.AppendUint64(req, uint64(r.PFN))
		req = binary.LittleEndian.AppendUint32(req, uint32(len(r.Buf)))
		total += len(r.Buf)
	}
	n.chargeConnect(m, target)
	resp, err := n.roundtrip(target, req)
	if err != nil {
		return err
	}
	if len(resp) != total {
		return fmt.Errorf("rdma/tcp: short batch read: %d != %d", len(resp), total)
	}
	for _, r := range reqs {
		copy(r.Buf, resp[:len(r.Buf)])
		resp = resp[len(r.Buf):]
	}
	cm := n.fabric.cm
	m.Charge(cat,
		cm.DoorbellBase+simtime.Scale(cm.DoorbellPerPage, len(reqs))+simtime.Bytes(total, cm.RDMAPerByte))
	return nil
}

// WritePages implements Transport over TCP with one roundtrip.
func (n *TCPNIC) WritePages(m *simtime.Meter, target memsim.MachineID, reqs []PageWrite) error {
	return n.WritePagesCat(m, simtime.CatReplicate, target, reqs)
}

// WritePagesCat is WritePages with an explicit charge category.
func (n *TCPNIC) WritePagesCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, reqs []PageWrite) error {
	if len(reqs) == 0 {
		return nil
	}
	if target == n.owner {
		for _, r := range reqs {
			n.local.WriteFrame(r.PFN, 0, r.Data)
		}
		return nil
	}
	total := 0
	for _, r := range reqs {
		total += len(r.Data)
	}
	req := append(make([]byte, 0, 5+12*len(reqs)+total), opWrite)
	req = binary.LittleEndian.AppendUint32(req, uint32(len(reqs)))
	for _, r := range reqs {
		req = binary.LittleEndian.AppendUint64(req, uint64(r.PFN))
		req = binary.LittleEndian.AppendUint32(req, uint32(len(r.Data)))
		req = append(req, r.Data...)
	}
	n.chargeConnect(m, target)
	if _, err := n.roundtrip(target, req); err != nil {
		return err
	}
	cm := n.fabric.cm
	base := cm.RDMAPageWrite - simtime.Bytes(memsim.PageSize, cm.RDMAPerByte)
	if base < 0 {
		base = 0
	}
	m.Charge(cat,
		base+simtime.Scale(cm.DoorbellPerPage, len(reqs))+simtime.Bytes(total, cm.RDMAPerByte))
	return nil
}

// Call implements Transport over TCP.
func (n *TCPNIC) Call(m *simtime.Meter, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	return n.CallCat(m, simtime.CatMap, target, endpoint, req)
}

// CallCat is Call with an explicit charge category, matching the SimFabric
// NIC so category attribution survives a switch to the TCP byte transport.
func (n *TCPNIC) CallCat(m *simtime.Meter, cat simtime.Category, target memsim.MachineID, endpoint string, req []byte) ([]byte, error) {
	msg := append(make([]byte, 0, 3+len(endpoint)+len(req)), opRPC)
	msg = binary.LittleEndian.AppendUint16(msg, uint16(len(endpoint)))
	msg = append(append(msg, endpoint...), req...)
	n.chargeConnect(m, target)
	resp, err := n.roundtrip(target, msg)
	if err != nil {
		return nil, err
	}
	cm := n.fabric.cm
	// Request and response bytes are charged separately, mirroring the sim
	// NIC exactly — summing first would round differently and break the
	// virtual-time equality between fabrics.
	m.Charge(cat, cm.RPCBase+simtime.Bytes(len(req), cm.RPCPerByte))
	m.Charge(cat, simtime.Bytes(len(resp), cm.RPCPerByte))
	return resp, nil
}
