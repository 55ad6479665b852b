package objrt

import (
	"fmt"

	"rmmap/internal/simtime"
)

// This file implements the hybrid GC of §4.3. The local heap gets an
// ordinary tracing collector (mark-sweep over the allocator's metadata).
// The *remote* heap is managed coarsely: a RemoteRef proxy on the local
// runtime pins the whole mapping, and releasing the proxy unmaps it —
// zero-cost GC for remote objects, with no remote reads during collection.
// Tracing simply skips any pointer that leaves the local heap.

// Unmapper is what a RemoteRef releases — satisfied by *kernel.Mapping.
type Unmapper interface {
	Unmap() error
}

// RemoteRef is the special local object pointing at the root of a
// remotely mapped state. When it is released (the workload no longer uses
// the state), the remote heap is unmapped from the consumer.
type RemoteRef struct {
	rt       *Runtime
	Root     Obj
	mapping  Unmapper
	released bool
}

// AdoptRemote creates the local proxy for a remotely mapped root.
func (rt *Runtime) AdoptRemote(root Obj, mapping Unmapper) *RemoteRef {
	r := &RemoteRef{rt: rt, Root: root, mapping: mapping}
	rt.remote = append(rt.remote, r)
	return r
}

// Release destroys the proxy, unmapping the remote heap. Releasing twice
// is a no-op.
func (r *RemoteRef) Release() error {
	if r.released {
		return nil
	}
	r.released = true
	for i, o := range r.rt.remote {
		if o == r {
			r.rt.remote = append(r.rt.remote[:i], r.rt.remote[i+1:]...)
			break
		}
	}
	if r.mapping != nil {
		return r.mapping.Unmap()
	}
	return nil
}

// RemoteRefs returns the live remote proxies.
func (rt *Runtime) RemoteRefs() []*RemoteRef { return rt.remote }

// ReleaseAllRemote releases every live proxy — what the framework does
// when a function invocation finishes.
func (rt *Runtime) ReleaseAllRemote() error {
	var first error
	for len(rt.remote) > 0 {
		if err := rt.remote[0].Release(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AddRoot registers a GC root (a local object the function still holds).
func (rt *Runtime) AddRoot(o Obj) {
	rt.roots[o.Addr] = struct{}{}
}

// RemoveRoot drops a GC root.
func (rt *Runtime) RemoveRoot(o Obj) {
	delete(rt.roots, o.Addr)
}

// GCStats reports one collection.
type GCStats struct {
	Marked     int
	Swept      int
	SweptBytes uint64
	// RemoteSkipped counts pointers that left the local heap during
	// marking and were skipped (§4.3: "if the local GC traces an object
	// on the remote heap, we will simply skip it").
	RemoteSkipped int
}

// GC runs a mark-sweep collection of the local heap. Objects reachable
// from registered roots survive; everything else is freed. Pointers to
// non-local addresses are skipped, never followed — the remote heap's
// lifetime is governed solely by RemoteRefs.
func (rt *Runtime) GC() (GCStats, error) {
	var st GCStats
	marked := make(map[uint64]struct{})
	var stack []uint64
	for addr := range rt.roots {
		stack = append(stack, addr)
	}
	for len(stack) > 0 {
		addr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !rt.heap.Contains(addr) {
			st.RemoteSkipped++
			continue
		}
		if _, ok := marked[addr]; ok {
			continue
		}
		if _, allocated := rt.heap.SizeOf(addr); !allocated {
			return st, fmt.Errorf("objrt: root/pointer %#x is not an allocation", addr)
		}
		marked[addr] = struct{}{}
		o := Obj{rt: rt, Addr: addr}
		h, err := o.header()
		if err != nil {
			return st, err
		}
		children, err := o.children(h)
		if err != nil {
			return st, err
		}
		for _, c := range children {
			stack = append(stack, c.Addr)
		}
	}
	st.Marked = len(marked)

	var dead []uint64
	var deadBytes uint64
	rt.heap.EachAlloc(func(addr, size uint64) {
		if _, ok := marked[addr]; !ok {
			dead = append(dead, addr)
			deadBytes += size
		}
	})
	if err := rt.heap.FreeBatch(dead); err != nil {
		return st, err
	}
	st.Swept = len(dead)
	st.SweptBytes = deadBytes
	return st, nil
}

// CopyToLocal deep-copies an object graph (typically rooted in a remote
// mapping) onto this runtime's local heap and returns the local root. This
// is the paper's answer to both the "remote sub-object assigned to a local
// object" corner case and cascading state transfer (§4.3–4.4): rather than
// multi-hop mappings, the assigned object is copied once.
//
// The copy charges compute time at memcpy bandwidth for the bytes moved
// (reads through the mapping additionally charge fault costs as usual).
func (rt *Runtime) CopyToLocal(src Obj, meter *simtime.Meter) (Obj, error) {
	memo := make(map[uint64]Obj)
	var copied uint64
	var rec func(o Obj) (Obj, error)
	rec = func(o Obj) (Obj, error) {
		if dup, ok := memo[o.Addr]; ok {
			return dup, nil
		}
		h, err := o.header()
		if err != nil {
			return Obj{}, err
		}
		psize := payloadSize(h)
		payload := make([]byte, psize)
		if err := o.rt.as.Read(o.Addr+HeaderSize, payload); err != nil {
			return Obj{}, err
		}
		if nptr := pointerCount(h); nptr > 0 {
			for i := 0; i < nptr; i++ {
				childAddr := getU64(payload[i*PtrSize:])
				child, err := rec(Obj{rt: o.rt, Addr: childAddr})
				if err != nil {
					return Obj{}, err
				}
				putU64(payload[i*PtrSize:], child.Addr)
			}
		}
		dst, err := rt.alloc(h)
		if err != nil {
			return Obj{}, err
		}
		if err := rt.as.Write(dst.Addr+HeaderSize, payload); err != nil {
			return Obj{}, err
		}
		memo[o.Addr] = dst
		copied += objectSize(h)
		return dst, nil
	}
	out, err := rec(src)
	if err != nil {
		return Obj{}, err
	}
	meter.Charge(simtime.CatCompute, simtime.Bytes(int(copied), rt.cm.MemcpyPerByte))
	return out, nil
}
