package rdma

import (
	"bytes"

	"rmmap/internal/memsim"
)

// NewDetachedServer returns a server for m that owns no listener; tests
// feed its dispatcher through ServeBytes.
func NewDetachedServer(m *memsim.Machine) *TCPServer {
	return &TCPServer{machine: m, handlers: make(map[string]Handler)}
}

// ServeBytes runs every length-prefixed request in stream through readMsg
// and dispatch, as serveConn does for a socket, and returns the
// dispatcher's error for each one.
func (s *TCPServer) ServeBytes(stream []byte) []error {
	var errs []error
	r := bytes.NewReader(stream)
	for {
		req, err := readMsg(r)
		if err != nil {
			return errs
		}
		_, err = s.dispatch(req)
		errs = append(errs, err)
	}
}
