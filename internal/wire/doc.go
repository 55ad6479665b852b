// Package wire is the one bounded cursor every byte decoder reads through:
// kernel RPC requests and replies, the TCP fabric's messages, the
// coordinator's journal and snapshots, arrow batches and pickle streams.
//
// A Reader reads little-endian fields off a byte slice. The first read
// that would run past the end fails the Reader, and the failure is sticky:
// every later read returns zero and leaves the position where it was, so a
// decoder reads its fields straight-line and checks Err or Done once. A
// count read from the input sizes an allocation only through Count, which
// rejects any count the remaining bytes cannot hold.
//
// Encoders append with encoding/binary's LittleEndian.AppendUintN and use
// PutUintN only to back-patch a count; each format is documented once, at
// its encoder.
package wire
