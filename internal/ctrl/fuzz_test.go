package ctrl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// FuzzJournal fuzzes the journal codec end to end (ISSUE satellite). The
// invariants it pins:
//
//   - DecodeRecords never panics and never reads past its input.
//   - The clean offset is a valid prefix length, and on success equals
//     len(data) minus any truncated tail.
//   - Re-encoding the recovered records reproduces data[:clean] byte for
//     byte (decode is the inverse of encode on the valid prefix).
//   - Errors are always *CorruptError with an in-range position.
//   - LoadState tolerates arbitrary journal tails after a valid header.
//   - DecodeRecords agrees with its pre-port oracle (oracle_test.go) on
//     the records, the clean offset and the error, byte for byte.
func FuzzJournal(f *testing.F) {
	// Seed corpus: a valid multi-record journal, its truncations at every
	// interesting boundary, and corrupt length prefixes — mirroring the
	// FuzzAuthWire seeding style.
	valid := mustEncodeAll([]Record{
		{Kind: RecEpoch, Epoch: 1},
		{Kind: RecSlot, Slot: PlanSlot{Fn: "produce", Inst: 0, Start: 0x1000, End: 0x2000}},
		{Kind: RecPlace, Pod: 1, Machine: 1},
		{Kind: RecRegister, Ref: RegRef{ID: 7, Key: 0xdead}, Machine: 1, Allowed: []uint64{11, 12}},
		{Kind: RecAddRef, Ref: RegRef{ID: 7, Key: 0xdead}},
		{Kind: RecACL, Ref: RegRef{ID: 7, Key: 0xdead}, Allowed: []uint64{13}},
		{Kind: RecRelease, Ref: RegRef{ID: 7, Key: 0xdead}},
		{Kind: RecReclaim, Ref: RegRef{ID: 7, Key: 0xdead}, Machine: 1},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // truncated checksum
	f.Add(valid[:len(valid)-9]) // truncated body
	f.Add(valid[:2])            // truncated length prefix
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(corrupt, MaxRecordLen+1)
	f.Add(corrupt)
	zero := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(zero, 0)
	f.Add(zero)
	flipped := append([]byte(nil), valid...)
	flipped[6] ^= 0x40 // body corruption → checksum mismatch
	f.Add(flipped)
	// A frame whose length prefix promises more than the buffer holds.
	short := binary.LittleEndian.AppendUint32(nil, 100)
	f.Add(append(short, bytes.Repeat([]byte{0xaa}, 20)...))
	// Kind 9 — the retired shard stamp — is no record kind: a well-framed
	// kind-9 record decodes as corruption, not as a skippable record.
	kind9 := []byte{9, 1, 0, 0, 0, 4, 0, 0, 0}
	stamp := binary.LittleEndian.AppendUint32(nil, uint32(len(kind9)))
	stamp = binary.LittleEndian.AppendUint32(append(stamp, kind9...), fnv32a(kind9))
	var ce *CorruptError
	if _, clean, err := DecodeRecords(stamp); !errors.As(err, &ce) || clean != 0 {
		f.Fatalf("kind-9 record: clean %d, err %v; want corrupt at byte 0", clean, err)
	}
	f.Add(stamp)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, err := DecodeRecords(data)
		oldRecs, oldClean, oldErr := oldDecodeRecords(data)
		if !reflect.DeepEqual(recs, oldRecs) || clean != oldClean || !reflect.DeepEqual(err, oldErr) {
			t.Fatalf("DecodeRecords (%d recs, clean %d, err %v) != oracle (%d recs, clean %d, err %v)",
				len(recs), clean, err, len(oldRecs), oldClean, oldErr)
		}
		if clean < 0 || clean > len(data) {
			t.Fatalf("clean offset %d out of range [0,%d]", clean, len(data))
		}
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("non-CorruptError from DecodeRecords: %v", err)
			}
			if ce.Pos < 0 || ce.Pos > len(data) {
				t.Fatalf("corrupt position %d out of range", ce.Pos)
			}
			if ce.Pos != clean {
				t.Fatalf("corrupt position %d != clean offset %d", ce.Pos, clean)
			}
		}
		// Decode is the inverse of encode over the valid prefix.
		var re []byte
		for _, r := range recs {
			frame, encErr := EncodeRecord(r)
			if encErr != nil {
				t.Fatalf("recovered record does not re-encode: %v", encErr)
			}
			re = append(re, frame...)
		}
		if !bytes.Equal(re, data[:clean]) {
			t.Fatalf("re-encoded prefix differs from input prefix")
		}
		// Re-decoding the re-encoded prefix must be error-free and whole.
		recs2, clean2, err2 := DecodeRecords(re)
		if err2 != nil || clean2 != len(re) || len(recs2) != len(recs) {
			t.Fatalf("re-decode: %d recs, clean %d, err %v", len(recs2), clean2, err2)
		}

		// The full loader must tolerate the same bytes as a journal tail.
		if st, _, lerr := LoadState(EncodeSave(nil, data)); lerr == nil && st == nil {
			t.Fatalf("LoadState returned nil state without error")
		}
		// And as a snapshot section it must never panic either.
		_, _ = DecodeSnapshot(data)
		// Nor as a whole save file.
		_, _, _ = LoadState(data)
	})
}

// FuzzRingRoute fuzzes consistent-hash routing (ISSUE satellite): for any
// vnode count, membership mask, and key, Route is total — it never
// panics, fails only on the empty ring, always names a member, and is
// idempotent for the same key.
func FuzzRingRoute(f *testing.F) {
	f.Add(uint8(DefaultVnodes), uint32(0b1111), uint64(0xdeadbeef))
	f.Add(uint8(1), uint32(1), uint64(0))
	f.Add(uint8(0), uint32(0), uint64(1))
	f.Add(uint8(255), uint32(0xffffffff), uint64(1<<63))

	f.Fuzz(func(t *testing.T, vnodes uint8, mask uint32, key uint64) {
		r := NewRing(int(vnodes)%16 + 1)
		members := map[int]bool{}
		for s := 0; s < 32; s++ {
			if mask&(1<<s) != 0 {
				r.Add(s)
				members[s] = true
			}
		}
		shard, ok := r.Route(key)
		if len(members) == 0 {
			if ok {
				t.Fatalf("empty ring routed key %#x to shard %d", key, shard)
			}
			return
		}
		if !ok {
			t.Fatalf("non-empty ring (%d members) failed to route key %#x", len(members), key)
		}
		if !members[shard] {
			t.Fatalf("key %#x routed to non-member shard %d", key, shard)
		}
		if again, _ := r.Route(key); again != shard {
			t.Fatalf("route not idempotent: %d then %d", shard, again)
		}
	})
}

func mustEncodeAll(recs []Record) []byte {
	var buf []byte
	for _, r := range recs {
		frame, err := EncodeRecord(r)
		if err != nil {
			panic(err)
		}
		buf = append(buf, frame...)
	}
	return buf
}
