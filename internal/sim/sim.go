// Package sim provides a deterministic discrete-event simulation kernel
// used to model heterogeneous hardware deployments (CPU hosts,
// SmartNICs, FPGAs, programmable switches) without physical testbeds.
//
// Determinism is a design requirement, not an accident: the paper's
// Principle 1 demands context-independent measurements — identical
// deployments must yield identical costs — and a simulator that gives
// the same trace for the same seed is the strongest form of that
// property. Events at equal timestamps are ordered by schedule sequence
// number, and all randomness flows from explicitly seeded streams.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is simulated time in seconds since simulation start. A float64
// gives sub-nanosecond resolution over the second-to-minutes horizons
// these simulations run.
type Time float64

// Duration converts a simulated interval to a time.Duration for
// reporting. Durations beyond ~292 years saturate.
func (t Time) Duration() time.Duration {
	return time.Duration(float64(t) * float64(time.Second))
}

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// Event is a scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventQueue is a binary min-heap ordered by (time, sequence).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

//fairlint:allow hotalloc event queue reaches steady-state capacity; heap growth is amortized across the run
func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// TraceFunc observes kernel progress: it receives the virtual clock,
// the number of events processed so far, and the pending queue depth.
// Hooks fire after an event's callback has run, so the reported state
// includes anything the event scheduled.
type TraceFunc func(now Time, processed uint64, pending int)

// Sim is a discrete-event simulator. Not safe for concurrent use: a
// simulation is a single logical timeline.
type Sim struct {
	now        Time
	queue      eventQueue
	seq        uint64
	events     uint64
	halted     bool
	trace      TraceFunc
	traceEvery uint64
}

// New returns a simulator at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.events }

// Pending returns the number of scheduled, not-yet-executed events.
func (s *Sim) Pending() int { return len(s.queue) }

// ErrPastEvent is returned when scheduling before the current time.
var ErrPastEvent = errors.New("sim: cannot schedule event in the past")

// At schedules fn to run at absolute simulated time t. Events at equal
// times run in scheduling order.
//
//fairbench:hotpath fairbench case sim-event-throughput
func (s *Sim) At(t Time, fn func()) error {
	if t < s.now {
		return fmt.Errorf("%w: now=%v, requested=%v", ErrPastEvent, s.now, t)
	}
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
		return fmt.Errorf("sim: invalid event time %v", t)
	}
	//fairlint:allow hotalloc one *event per At (fairperf sim.allocs_per_event = 1.0); ROADMAP item 2's value-typed event heap removes it
	e := &event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, e)
	return nil
}

// After schedules fn to run delta seconds from now.
func (s *Sim) After(delta float64, fn func()) error {
	if delta < 0 {
		return fmt.Errorf("%w: negative delay %v", ErrPastEvent, delta)
	}
	return s.At(s.now+Time(delta), fn)
}

// SetTrace installs a kernel progress hook, invoked after every
// `every`-th executed event (every <= 1 fires on all events). A nil fn
// disables tracing. The hook adds one branch per event when installed
// and nothing when not, so untraced runs are unaffected.
func (s *Sim) SetTrace(fn TraceFunc, every uint64) {
	s.trace = fn
	s.traceEvery = every
}

// traceTick fires the kernel hook when due.
func (s *Sim) traceTick() {
	if s.trace != nil && (s.traceEvery <= 1 || s.events%s.traceEvery == 0) {
		s.trace(s.now, s.events, len(s.queue))
	}
}

// Halt stops the run loop after the current event completes. Pending
// events remain queued; a subsequent Run resumes.
func (s *Sim) Halt() { s.halted = true }

// Run executes events in timestamp order until the queue is empty, the
// horizon is passed, or Halt is called. The clock finishes at the
// horizon if it was not already beyond it, so rate computations over
// [0, horizon) are well-defined even when the queue drains early.
//
//fairbench:hotpath fairbench case sim-event-throughput
func (s *Sim) Run(horizon Time) {
	s.halted = false
	for len(s.queue) > 0 && !s.halted {
		next := s.queue[0]
		if next.at > horizon {
			break
		}
		heap.Pop(&s.queue)
		s.now = next.at
		s.events++
		next.fn()
		s.traceTick()
	}
	if s.now < horizon && !s.halted {
		s.now = horizon
	}
}

// RunAll executes events until the queue is empty or Halt is called.
// Use with sources that stop generating; an unbounded source will loop
// forever.
//
//fairbench:hotpath fairbench case sim-event-throughput
func (s *Sim) RunAll() {
	s.halted = false
	for len(s.queue) > 0 && !s.halted {
		next := heap.Pop(&s.queue).(*event)
		s.now = next.at
		s.events++
		next.fn()
		s.traceTick()
	}
}
