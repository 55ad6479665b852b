package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

func newTCPPair(t *testing.T) (*TCPFabric, *memsim.Machine, *TCPServer, *TCPNIC) {
	t.Helper()
	cm := simtime.DefaultCostModel()
	fabric := NewTCPFabric(cm)
	remote := memsim.NewMachine(1)
	srv, err := fabric.Serve(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	local := memsim.NewMachine(0)
	nic := NewTCPNIC(local, fabric)
	t.Cleanup(nic.Close)
	return fabric, remote, srv, nic
}

// TestTCPHungPeerTimesOut: a peer that accepts but never answers must
// surface a deadline error instead of wedging the caller forever.
func TestTCPHungPeerTimesOut(t *testing.T) {
	cm := simtime.DefaultCostModel()
	fabric := NewTCPFabric(cm)
	fabric.IOTimeout = 200 * time.Millisecond

	// A listener that swallows requests without ever responding.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 1024)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()
	fabric.mu.Lock()
	fabric.addrs[9] = ln.Addr().String()
	fabric.mu.Unlock()

	nic := NewTCPNIC(memsim.NewMachine(0), fabric)
	defer nic.Close()

	done := make(chan error, 1)
	go func() {
		_, err := nic.Call(simtime.NewMeter(), 9, "ep", []byte("x"))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("call to hung peer succeeded")
		}
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("want timeout error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("call to hung peer never returned (deadline not applied)")
	}
}

// TestTCPBrokenConnEvictedAndRedialed: a cached connection that dies must
// not poison later calls — the NIC evicts it and redials transparently.
func TestTCPBrokenConnEvictedAndRedialed(t *testing.T) {
	_, remote, _, nic := newTCPPair(t)
	pfn := remote.AllocFrame()
	remote.WriteFrame(pfn, 0, []byte("payload"))

	buf := make([]byte, 7)
	if err := nic.Read(simtime.NewMeter(), 1, pfn, 0, buf); err != nil {
		t.Fatalf("first read: %v", err)
	}

	// Sever the cached connection underneath the NIC.
	nic.mu.Lock()
	cached := nic.conns[1]
	nic.mu.Unlock()
	if cached == nil {
		t.Fatalf("no cached connection after successful read")
	}
	cached.conn.Close()

	// The next operation must recover on a fresh dial, not fail.
	clear(buf)
	if err := nic.Read(simtime.NewMeter(), 1, pfn, 0, buf); err != nil {
		t.Fatalf("read after severed connection: %v", err)
	}
	if string(buf) != "payload" {
		t.Fatalf("read %q after redial, want %q", buf, "payload")
	}
	nic.mu.Lock()
	fresh := nic.conns[1]
	nic.mu.Unlock()
	if fresh == cached {
		t.Fatalf("broken connection still cached")
	}
}

// TestTCPRemoteErrorKeepsConnection: an application-level error (status 1)
// travels over a healthy connection; it must be reported as ErrRemote and
// must not trigger eviction or redial.
func TestTCPRemoteErrorKeepsConnection(t *testing.T) {
	_, _, _, nic := newTCPPair(t)
	_, err := nic.Call(simtime.NewMeter(), 1, "no-such-endpoint", nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
	nic.mu.Lock()
	first := nic.conns[1]
	nic.mu.Unlock()
	if first == nil {
		t.Fatalf("connection evicted on remote error")
	}
	if _, err := nic.Call(simtime.NewMeter(), 1, "still-missing", nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("second call: want ErrRemote, got %v", err)
	}
	nic.mu.Lock()
	second := nic.conns[1]
	nic.mu.Unlock()
	if second != first {
		t.Fatalf("healthy connection was redialed after remote error")
	}
}

// TestTCPServerCloseDrainsInflightConns: Close must unblock serveConn
// goroutines parked on idle client connections and return promptly.
func TestTCPServerCloseDrainsInflightConns(t *testing.T) {
	cm := simtime.DefaultCostModel()
	fabric := NewTCPFabric(cm)
	srv, err := fabric.Serve(memsim.NewMachine(1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Park two idle client connections on the server.
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
	}
	// Give acceptLoop a moment to hand them to serveConn.
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Close hung on in-flight connections")
	}
	// Idempotent.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestTCPServerCrashSurfacesToClient: a crashed machine's server answers
// reads with ErrMachineCrashed text over a healthy connection.
func TestTCPServerCrashSurfacesToClient(t *testing.T) {
	_, remote, _, nic := newTCPPair(t)
	pfn := remote.AllocFrame()
	buf := make([]byte, 8)
	if err := nic.Read(simtime.NewMeter(), 1, pfn, 0, buf); err != nil {
		t.Fatalf("read before crash: %v", err)
	}
	remote.Crash()
	err := nic.Read(simtime.NewMeter(), 1, pfn, 0, buf)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("read from crashed machine: want ErrRemote, got %v", err)
	}
}

// TestTCPEpochEvictsStaleConnAfterReServe: when a machine ID is re-served
// (crashed node replaced at a new address), cached connections dialed
// under the old epoch must be evicted — the NIC redials the replacement
// instead of talking to the dead node's socket.
func TestTCPEpochEvictsStaleConnAfterReServe(t *testing.T) {
	fabric, remote, srv, nic := newTCPPair(t)
	pfn := remote.AllocFrame()
	remote.WriteFrame(pfn, 0, []byte("old-node"))

	buf := make([]byte, 8)
	if err := nic.Read(simtime.NewMeter(), 1, pfn, 0, buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	nic.mu.Lock()
	cached := nic.conns[1]
	nic.mu.Unlock()
	if cached == nil {
		t.Fatalf("no cached connection after successful read")
	}

	// Replace machine 1: a new machine under the same ID, served at a new
	// address. The old server's socket is still listening — a stale cached
	// connection would happily keep answering with the dead node's memory.
	replacement := memsim.NewMachine(1)
	rpfn := replacement.AllocFrame()
	replacement.WriteFrame(rpfn, 0, []byte("new-node"))
	srv2, err := fabric.Serve(replacement, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })

	clear(buf)
	if err := nic.Read(simtime.NewMeter(), 1, rpfn, 0, buf); err != nil {
		t.Fatalf("read after re-serve: %v", err)
	}
	if string(buf) != "new-node" {
		t.Fatalf("read %q after re-serve, want %q (stale socket reused)", buf, "new-node")
	}
	nic.mu.Lock()
	fresh := nic.conns[1]
	nic.mu.Unlock()
	if fresh == cached {
		t.Fatalf("epoch bump did not evict the stale connection")
	}
	_ = srv
}

// TestReadMsgRoundTrip: messages shorter than, equal to and several times
// readStep read back whole and in order, and a body cut short at a step
// boundary or inside a step is io.ErrUnexpectedEOF, not a clean io.EOF.
func TestReadMsgRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	sizes := []int{0, 1, readStep, 3*readStep + 17}
	for _, n := range sizes {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		if err := writeMsg(&stream, msg); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range sizes {
		got, err := readMsg(&stream)
		if err != nil || len(got) != n {
			t.Fatalf("%d-byte message: read %d bytes, %v", n, len(got), err)
		}
		for i, b := range got {
			if b != byte(i*7) {
				t.Fatalf("%d-byte message: byte %d = %d", n, i, b)
			}
		}
	}
	if _, err := readMsg(&stream); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	for _, body := range []int{readStep, readStep + 5} {
		cut := append(binary.LittleEndian.AppendUint32(nil, 2*readStep), make([]byte, body)...)
		if _, err := readMsg(bytes.NewReader(cut)); err != io.ErrUnexpectedEOF {
			t.Fatalf("body cut after %d bytes: %v, want io.ErrUnexpectedEOF", body, err)
		}
	}
}
