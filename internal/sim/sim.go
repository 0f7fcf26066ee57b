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

// Handler is a scheduled event's action: the kernel calls Fire once,
// at the event's time. Per-packet code schedules a long-lived handler
// (a device, a run's arrival process) instead of a fresh closure, so
// scheduling allocates nothing.
type Handler interface{ Fire() }

// handlerFunc adapts a plain callback to Handler. A func value is
// pointer-shaped, so storing one in the interface does not allocate.
type handlerFunc func()

func (f handlerFunc) Fire() { f() }

// event is one scheduled handler.
type event struct {
	at  Time
	seq uint64
	h   Handler
}

// before orders events by (time, sequence); sequence numbers are
// unique, so the order is total and pops are fully deterministic.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
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
	queue      []event // binary min-heap by value, ordered by before
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

// Schedule arranges for h.Fire to run at absolute simulated time t.
// Events at equal times run in scheduling order.
//
//fairbench:hotpath fairbench case sim-event-throughput
func (s *Sim) Schedule(t Time, h Handler) error {
	if t < s.now {
		return fmt.Errorf("%w: now=%v, requested=%v", ErrPastEvent, s.now, t)
	}
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
		return fmt.Errorf("sim: invalid event time %v", t)
	}
	s.push(event{at: t, seq: s.seq, h: h})
	s.seq++
	return nil
}

// At schedules fn to run at absolute simulated time t. Events at equal
// times run in scheduling order.
//
//fairbench:hotpath fairbench case sim-event-throughput
func (s *Sim) At(t Time, fn func()) error { return s.Schedule(t, handlerFunc(fn)) }

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

// push adds e to the heap, sifting it up from the last slot.
func (s *Sim) push(e event) {
	//fairlint:allow hotalloc event queue reaches steady-state capacity; heap growth is amortized across the run
	q := append(s.queue, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	s.queue = q
}

// pop removes and returns the earliest event: the last slot moves to
// the root and sifts down.
func (s *Sim) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // release the handler for the collector
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	s.queue = q
	return top
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
		if s.queue[0].at > horizon {
			break
		}
		next := s.pop()
		s.now = next.at
		s.events++
		next.h.Fire()
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
		next := s.pop()
		s.now = next.at
		s.events++
		next.h.Fire()
		s.traceTick()
	}
}
