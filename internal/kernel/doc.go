// Package kernel implements the RMMAP OS primitive (§4.1, Table 1):
// register_mem, rmap, deregister_mem and set_segment, plus the remote
// page-fault path and the shadow-copy lifecycle management.
//
// One Kernel instance runs per machine. register_mem CoW-marks the caller's
// pages and takes shadow references so the registered memory outlives the
// producer container. rmap issues the auth/page-table RPC to the producer's
// kernel, then installs a VMA whose fault handler reads remote physical
// frames with one-sided RDMA; Prefetch reads many pages in one
// doorbell-batched request (§4.4).
//
// Invariants:
//
//   - Registered memory is immutable: the shadow references taken at
//     register_mem pin the exact bytes the producer published, even if the
//     producer writes (CoW) or exits afterwards.
//   - A consumer's view is installed at the producer's virtual addresses
//     (the platform's address plan guarantees no collision), so pointers
//     inside the registered region stay valid without fixup.
//   - Remote faults, prefetches, and the machine-level page cache charge
//     the Meter under distinct simtime categories (fault, readahead,
//     cache), which is what the obs layer's breakdowns report.
//   - deregister_mem releases shadow references; frames free only when the
//     last reference (local or remote cache) drops.
//   - Every remote page arrives through one routine (Mapping.fetch): demand
//     faults, readahead windows and Prefetch differ only in how the read is
//     issued. With the cache on, pages are admitted, installed, and only
//     then is the cache trimmed, so eviction never frees a frame a page
//     table is about to map.
//   - A machine's PageCache is one mutex over one LRU list: the engine runs
//     a machine's invocations on one goroutine at a time, so nothing
//     contends for it (DESIGN.md §12).
package kernel
