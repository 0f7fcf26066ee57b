// Package hw models the heterogeneous hardware devices of the paper's
// examples — CPU cores, regular NICs, SmartNICs, programmable switches
// and FPGAs — as discrete-event queueing servers with power models and
// cost vectors.
//
// This package is the simulated substitute for the physical testbeds the
// paper's examples presume (see DESIGN.md, "Substitutions"). Each device
// model exposes:
//
//   - processing behaviour (service times, queues, drops) driven by the
//     cycle costs reported by internal/nf, so performance emerges from
//     executing code;
//   - a power model (idle/active split, integrated to energy over
//     simulated time), power being the paper's exemplar cost metric; and
//   - a cost vector (power plus device-specific metrics such as cores or
//     LUTs) feeding the end-to-end coverage machinery in internal/cost.
package hw

import (
	"fmt"

	"fairbench/internal/cost"
	"fairbench/internal/metric"
	"fairbench/internal/sim"
)

// Device is a hardware component with a power model and a cost vector.
type Device interface {
	// Name identifies the device instance.
	Name() string
	// EnergyJoules returns the total energy consumed over [0, end),
	// integrating idle and active power.
	EnergyJoules(end sim.Time) float64
	// MaxPowerWatts returns the device's peak (provisioned) power draw,
	// the figure a deployment reports as its power cost. Evaluating
	// provisioned rather than instantaneous power matches how the
	// paper's examples attribute "50 W" to a configuration.
	MaxPowerWatts() float64
	// CostVector returns the device's context-independent cost metrics
	// (always including power; cores/LUTs where applicable).
	CostVector() cost.Vector
}

// Sojourn attributes a packet's in-device latency to stages: time
// spent queued behind earlier packets, the device's own service time,
// and the fixed I/O latency of reaching the device (PCIe transfer,
// offload path, pipeline fill). Completion callbacks receive the full
// breakdown so the observability layer can attribute latency per stage
// instead of a single opaque number.
type Sojourn struct {
	// WaitSeconds is the time queued before service began.
	WaitSeconds float64
	// ServiceSeconds is the device's busy time on this packet.
	ServiceSeconds float64
	// FixedSeconds is the path's fixed I/O latency.
	FixedSeconds float64
}

// Total returns the packet's end-to-end in-device latency.
func (s Sojourn) Total() float64 {
	return s.WaitSeconds + s.ServiceSeconds + s.FixedSeconds
}

// Completer receives a packet's completion from a device: the device
// calls Complete once, at the packet's finish time, with its sojourn
// breakdown. Callers pass a long-lived or pooled record rather than a
// fresh closure, so submitting a packet allocates nothing.
type Completer interface {
	Complete(Sojourn)
}

// pending is one accepted packet awaiting its completion event.
type pending struct {
	so Sojourn
	c  Completer // may be nil
}

// completions is a device's FIFO of pending packets. A device's finish
// times never decrease (finish = max(now, nextFree) + service, and
// nextFree only grows), and the kernel runs equal-time events in
// scheduling order, so the device's completion events fire in
// submission order: the oldest entry is always the one due.
type completions struct {
	buf  []pending // ring; len is zero or a power of two
	head int
	n    int
}

// push appends p at the tail, doubling the ring when full.
func (r *completions) push(p pending) {
	if r.n == len(r.buf) {
		//fairlint:allow hotalloc the ring doubles until it holds the device's deepest backlog (bounded by its queue), then is reused for the whole run
		buf := make([]pending, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

// pop removes and returns the oldest entry; the ring must be non-empty.
func (r *completions) pop() pending {
	p := r.buf[r.head]
	r.buf[r.head] = pending{} // release the completer for the collector
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// complete hands a popped entry to its completer, if any.
func (p pending) complete() {
	if p.c != nil {
		p.c.Complete(p.so)
	}
}

// AveragePowerWatts computes mean power of a device over [0, end).
func AveragePowerWatts(d Device, end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	return d.EnergyJoules(end) / end.Seconds()
}

// ComponentsOf converts devices into cost components for end-to-end
// composition (paper Principle 3).
func ComponentsOf(devices ...Device) []cost.Component {
	out := make([]cost.Component, 0, len(devices))
	for _, d := range devices {
		out = append(out, cost.Component{Name: d.Name(), Costs: d.CostVector()})
	}
	return out
}

// TotalPowerWatts composes the provisioned power of a set of devices
// end-to-end; it fails only if a device omits the power metric, which
// would be a bug (every Device must report power).
func TotalPowerWatts(devices ...Device) (float64, error) {
	q, err := cost.Compose(metric.MetricPower, ComponentsOf(devices...))
	if err != nil {
		return 0, fmt.Errorf("hw: composing power: %w", err)
	}
	w, err := q.Convert(metric.Watt)
	if err != nil {
		return 0, err
	}
	return w.Value, nil
}
