// Package memsim simulates the virtual-memory substrate RMMAP is built on:
// machines with pools of 4 KB physical frames, per-container address spaces
// with page tables and VMAs, copy-on-write, and pluggable page-fault
// handlers. It reproduces exactly the page-table state machine the paper's
// kernel module manipulates (§4.1), with real bytes behind every frame.
//
// The page table is stored per VMA: each VMA holds a dense PTE array
// indexed by page offset from its start, grown to the highest page ever
// installed (a zero entry is absent). A PTE therefore exists only inside a
// VMA, lookups are one VMA search plus an index, and every walk —
// MarkCoW's snapshot, Unmap and Release freeing frames — runs in VPN order.
//
// Invariants the rest of the stack relies on:
//
//   - Every mapped virtual page resolves to exactly one physical frame on
//     exactly one machine; frames are reference-counted and a frame is
//     recycled only when its count reaches zero.
//   - Copy-on-write is observable: a write to a CoW page allocates a new
//     frame and copies the old bytes before the store lands, so shadow
//     copies taken by register_mem (see the kernel package) are immutable.
//   - Page faults are the only way an unmapped access proceeds — the VMA's
//     fault handler either installs a frame or the access fails. This is
//     the hook kernel.Kernel uses to fetch remote pages lazily.
//   - MarkCoW returns its snapshot as []PageRef in strictly increasing VPN
//     order, and Unmap/Release free frames in VPN order, so the page tables
//     shipped to consumers and the machine's LIFO free list (hence every
//     later PFN) are pure functions of the page-table state.
//   - All sizes are page-granular; addresses are plain uint64 virtual
//     addresses, which is what lets objrt store raw pointers in object
//     fields and dereference them after an rmap.
package memsim
