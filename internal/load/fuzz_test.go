package load

import (
	"bytes"
	"reflect"
	"testing"

	"rmmap/internal/simtime"
)

// FuzzReadEvents throws arbitrary bytes at the JSONL trace reader.
// Malformed input is an error, never a panic. An accepted trace keeps the
// replay contract (sorted arrivals, no negative instant or deadline, a
// tenant on every event) and survives WriteEvents → ReadEvents unchanged.
func FuzzReadEvents(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteEvents(&valid, Poisson(PoissonSpec{Rate: 1000, Horizon: 5 * simtime.Millisecond,
		Tenants: 3, Deadline: simtime.Millisecond, Seed: 7})); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("\n{\"at_ns\":1,\"tenant\":\"a\"}\n\n"))
	f.Add([]byte("{\"at_ns\":10,\"tenant\":\"a\"}\n{\"at_ns\":4,\"tenant\":\"b\"}\n"))
	f.Add([]byte("{\"at_ns\":5,\"tenant\":\"a\",\"deadline_ns\":-1}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, ev := range events {
			if ev.At < 0 || ev.Deadline < 0 || ev.Tenant == "" || (i > 0 && ev.At < events[i-1].At) {
				t.Fatalf("event %d breaks the replay contract: %+v", i, ev)
			}
		}
		var buf bytes.Buffer
		if err := WriteEvents(&buf, events); err != nil {
			t.Fatal(err)
		}
		again, err := ReadEvents(&buf)
		if err != nil || !reflect.DeepEqual(again, events) {
			t.Fatalf("round trip: err %v\n got %+v\nwant %+v", err, again, events)
		}
	})
}
