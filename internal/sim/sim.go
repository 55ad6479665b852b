package sim

import (
	"container/heap"
	"fmt"

	"rmmap/internal/simtime"
)

// Event is a scheduled closure.
type event struct {
	at  simtime.Time
	seq uint64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Simulator runs events in virtual-time order.
type Simulator struct {
	now     simtime.Time
	queue   eventQueue
	nextSeq uint64
	stopped bool
	// Horizon, if nonzero, stops the run when virtual time passes it.
	Horizon simtime.Time
}

// New returns an empty simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() simtime.Time { return s.now }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error.
func (s *Simulator) At(t simtime.Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, s.now))
	}
	e := &event{at: t, seq: s.nextSeq, fn: fn}
	s.nextSeq++
	heap.Push(&s.queue, e)
}

// After schedules fn to run d after the current time.
func (s *Simulator) After(d simtime.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now.Add(d), fn)
}

// Stop halts the run loop after the current event returns.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue drains, Stop is called, or the
// horizon passes. It returns the final virtual time.
func (s *Simulator) Run() simtime.Time {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		e := heap.Pop(&s.queue).(*event)
		if s.Horizon != 0 && e.at > s.Horizon {
			s.now = s.Horizon
			return s.now
		}
		s.now = e.at
		e.fn()
	}
	return s.now
}

// Pending reports how many events are queued.
func (s *Simulator) Pending() int { return len(s.queue) }

// Every schedules fn to run repeatedly with the given period starting at
// start, until it returns false. It is used for lease scanners and
// failure-detector rounds.
func (s *Simulator) Every(start simtime.Time, period simtime.Duration, fn func() bool) {
	if period <= 0 {
		panic("sim: Every requires positive period")
	}
	var tick func()
	next := start
	tick = func() {
		if !fn() {
			return
		}
		next = next.Add(period)
		s.At(next, tick)
	}
	s.At(start, tick)
}
