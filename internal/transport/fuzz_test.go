package transport

import (
	"bytes"
	"testing"

	"rmmap/internal/simtime"
)

// FuzzDecodeEvent throws arbitrary bytes at the cloudevent decoder, the
// first step of every messaging-mode transfer a consumer receives. It must
// never panic; a compressed event's payload goes through Decompress as the
// consumer's does; and any event it accepts must survive re-encoding with
// the same identity, compression flag and payload. Seeds are EncodeEvent
// outputs, plain and compressed.
func FuzzDecodeEvent(f *testing.F) {
	payload := bytes.Repeat([]byte("RMPK1 state "), 8)
	packed, err := Compress(simtime.NewMeter(), payload)
	if err != nil {
		f.Fatal(err)
	}
	for i, data := range [][]byte{nil, payload, packed} {
		raw, err := EncodeEvent("r1-produce#0", "produce", "dev.rmmap.state", data, i == 2)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		env, data, err := DecodeEvent(raw)
		if err != nil {
			return
		}
		if env.Compressed {
			_, _ = Decompress(simtime.NewMeter(), data)
		}
		again, err := EncodeEvent(env.ID, env.Source, env.Type, data, env.Compressed)
		if err != nil {
			t.Fatalf("accepted event does not re-encode: %v", err)
		}
		env2, data2, err := DecodeEvent(again)
		if err != nil {
			t.Fatalf("re-encoded event rejected: %v", err)
		}
		if env2.ID != env.ID || env2.Source != env.Source || env2.Type != env.Type ||
			env2.Compressed != env.Compressed || !bytes.Equal(data2, data) {
			t.Fatalf("re-encoding changed the event:\n got %+v %x\nwant %+v %x", env2, data2, env, data)
		}
	})
}
