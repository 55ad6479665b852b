package admit

import (
	"errors"
	"testing"
)

func TestShedErrorUnwrap(t *testing.T) {
	over := &ShedError{Tenant: "a", Reason: ReasonQueueFull}
	if !errors.Is(over, ErrOverloaded) || errors.Is(over, ErrDeadlineExceeded) {
		t.Fatalf("queue-full shed unwraps wrong: %v", over)
	}
	dl := &ShedError{Tenant: "a", Reason: ReasonDeadline}
	if !errors.Is(dl, ErrDeadlineExceeded) || errors.Is(dl, ErrOverloaded) {
		t.Fatalf("deadline shed unwraps wrong: %v", dl)
	}
	down := &ShedError{Tenant: "a", Reason: ReasonControlPlane}
	if !errors.Is(down, ErrControlPlaneDown) || errors.Is(down, ErrOverloaded) {
		t.Fatalf("control-plane shed unwraps wrong: %v", down)
	}
}

func TestSubmitRunQueueShed(t *testing.T) {
	c := NewController(Config{MaxInflight: 1, QueueLimit: 2})
	// Free slot, empty queue: run.
	act, _ := c.Submit(0, &Request{Tenant: "a"}, 0, 0)
	if act != ActionRun {
		t.Fatalf("first submit: %v", act)
	}
	// Slot busy: queue up to the limit.
	for i := 0; i < 2; i++ {
		if act, _ := c.Submit(0, &Request{Tenant: "a"}, 1, 0); act != ActionQueue {
			t.Fatalf("queue submit %d: %v", i, act)
		}
	}
	// Queue full: shed.
	act, reason := c.Submit(0, &Request{Tenant: "a"}, 1, 0)
	if act != ActionShed || reason != ReasonQueueFull {
		t.Fatalf("overflow submit: %v %v", act, reason)
	}
	// Make room, then: a free slot with a nonempty queue still queues (no
	// overtaking).
	if _, _, ok := c.Next(0); !ok {
		t.Fatal("pop failed")
	}
	if act, _ := c.Submit(0, &Request{Tenant: "a"}, 0, 0); act != ActionQueue {
		t.Fatalf("nonempty-queue submit bypassed queue: %v", act)
	}
	s := c.Stats()
	if s.Submitted != 5 || s.Admitted != 2 || s.Queued != 3 || s.ShedQueueFull != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.Sheds() != 1 {
		t.Fatalf("sheds %d", s.Sheds())
	}
}

func TestNextFIFO(t *testing.T) {
	c := NewController(Config{MaxInflight: 1})
	a, b := &Request{Tenant: "a", Payload: "a"}, &Request{Tenant: "b", Payload: "b"}
	c.Submit(0, a, 1, 0)
	c.Submit(0, b, 1, 0)
	r, reason, ok := c.Next(0)
	if !ok || reason != ReasonNone || r != a {
		t.Fatalf("first pop: %v %v %v", r, reason, ok)
	}
	r, _, _ = c.Next(0)
	if r != b {
		t.Fatalf("second pop: %v", r)
	}
	if _, _, ok := c.Next(0); ok {
		t.Fatal("empty queue popped")
	}
}

// TestNextDeadlineOrder: deadlines decide only when a request sheds, never
// the order the queue serves requests in.
func TestNextDeadlineOrder(t *testing.T) {
	c := NewController(Config{MaxInflight: 1})
	late := &Request{Tenant: "t", Deadline: 300, Payload: "late"}
	none1 := &Request{Tenant: "t", Payload: "none1"}
	early := &Request{Tenant: "t", Deadline: 100, Payload: "early"}
	tie := &Request{Tenant: "t", Deadline: 100, Payload: "tie"}
	none2 := &Request{Tenant: "t", Payload: "none2"}
	want := []*Request{late, none1, early, tie, none2}
	for _, r := range want {
		if act, _ := c.Submit(0, r, 1, 0); act != ActionQueue {
			t.Fatalf("%v not queued: %v", r.Payload, act)
		}
	}
	for i, w := range want {
		r, reason, ok := c.Next(0)
		if !ok || reason != ReasonNone || r != w {
			t.Fatalf("pop %d: got %v, want %v", i, r.Payload, w.Payload)
		}
	}
}

func TestNextExpiredAndDrop(t *testing.T) {
	c := NewController(Config{MaxInflight: 1})
	exp := &Request{Tenant: "t", Deadline: 10, Payload: "exp"}
	live := &Request{Tenant: "t", Deadline: 1000, Payload: "live"}
	gone := &Request{Tenant: "t", Deadline: 10, Payload: "gone"}
	c.Submit(0, exp, 1, 0)
	c.Submit(0, live, 1, 0)
	c.Submit(0, gone, 1, 0)

	// Drop removes by payload identity and counts a deadline shed.
	if r, ok := c.Drop("gone"); !ok || r != gone {
		t.Fatalf("drop: %v %v", r, ok)
	}
	// A second drop of the same payload is a no-op.
	if _, ok := c.Drop("gone"); ok {
		t.Fatal("double drop succeeded")
	}

	// Popping past the deadline returns ReasonDeadline.
	r, reason, ok := c.Next(20)
	if !ok || reason != ReasonDeadline || r != exp {
		t.Fatalf("expired pop: %v %v %v", r, reason, ok)
	}
	// Deadline exactly at now is still live (strict >).
	r, reason, ok = c.Next(1000)
	if !ok || reason != ReasonNone || r != live {
		t.Fatalf("live pop: %v %v %v", r, reason, ok)
	}
	s := c.Stats()
	if s.ShedDeadline != 2 || s.Admitted != 1 || c.QueueLen() != 0 {
		t.Fatalf("stats %+v, queue %d", s, c.QueueLen())
	}
}

func TestRecordOutcomes(t *testing.T) {
	c := NewController(Config{})
	// Only a mid-run deadline miss counts, and only as a deadline shed:
	// no number of them changes what the next arrival gets.
	for i := 0; i < 2*DefaultQueueLimit; i++ {
		c.Record(0, "t", OutcomeDeadline)
	}
	c.Record(0, "t", OutcomeOK)
	s := c.Stats()
	if s.ShedDeadline != 2*DefaultQueueLimit || s.Sheds() != s.ShedDeadline || s.Admitted != 0 {
		t.Fatalf("stats %+v", s)
	}
	if act, _ := c.Submit(0, &Request{Tenant: "t"}, 0, 0); act != ActionRun {
		t.Fatalf("submit after deadline misses: %v, want run", act)
	}
}
