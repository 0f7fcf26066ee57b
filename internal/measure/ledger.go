package measure

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmptyWindow is the typed error aggregation returns when a
// measurement window saw no traffic — instead of letting a 0/0 turn
// into NaN and silently poison downstream Pareto verdicts.
var ErrEmptyWindow = errors.New("measure: empty measurement window")

// ErrNonFinite is the typed error wrapped by CheckFinite when an
// aggregate is NaN or infinite.
var ErrNonFinite = errors.New("measure: non-finite aggregate")

// CheckFinite validates that an aggregate value is finite, returning an
// error wrapping ErrNonFinite naming the offending quantity otherwise.
// Comparison pipelines call it before measured numbers become points in
// the performance-cost plane.
func CheckFinite(what string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: %s = %v", ErrNonFinite, what, v)
	}
	return nil
}

// ErrUnbalanced is the typed error Balance wraps when a run's packet
// outcomes do not add up to its offered load.
var ErrUnbalanced = errors.New("measure: packet outcomes do not balance offered load")

// Outcome is how the system finished with a packet.
type Outcome uint8

const (
	// Forwarded: the system completed work on the packet and sent it
	// out.
	Forwarded Outcome = iota
	// Dropped: the system completed work on the packet and discarded it
	// on purpose (a policy drop or an attributed overflow refusal).
	Dropped
	// Lost: no component could take the packet (overflow, outage, link
	// loss, or a frame the host could not parse).
	Lost
)

var outcomeLabels = [...]string{Forwarded: "forward", Dropped: "drop", Lost: "loss"}

// String names the outcome with the trace-span verdict labels.
func (o Outcome) String() string { return outcomeLabels[o] }

// Ticket locates an offered packet's rows in its ledger until the
// packet resolves.
type Ticket struct {
	bytes, class, window int
}

// Bytes returns the packet's frame size.
func (t Ticket) Bytes() int { return t.bytes }

// ClassRow is one traffic class's row.
type ClassRow struct {
	Class string
	Row
}

// Ledger accounts for every packet of a run exactly once: Offer when
// it enters the system, Resolve when it leaves as forwarded, dropped or
// lost. Each call updates three rows — the run total, the packet's
// traffic class and the availability window it arrived in — so the
// throughput, per-class and availability views read the same counts
// and cannot disagree. Outcomes are attributed to the packet's
// *arrival* window, so a fault's impact lands where the traffic it hurt
// arrived.
type Ledger struct {
	// Total counts every packet of the run.
	Total Row
	// Classes holds one row per traffic class in first-seen order. A
	// run sees a handful of classes, so lookup is a linear scan.
	Classes []ClassRow
	// Windows holds one row per availability window, indexed by
	// arrival time; it ends at the last window any packet arrived in.
	Windows []Row

	window float64
}

// NewLedger builds a ledger bucketing arrivals by windowSeconds.
func NewLedger(windowSeconds float64) (*Ledger, error) {
	if !(windowSeconds > 0) || math.IsInf(windowSeconds, 0) {
		return nil, fmt.Errorf("measure: invalid availability window %v", windowSeconds)
	}
	return &Ledger{window: windowSeconds}, nil
}

// Offer records a packet of class and frame size bytes entering the
// system at simulated time at, and returns the ticket its Resolve call
// takes. An empty class counts as StateLegitClass.
//
//fairbench:hotpath per-packet ingress of every deployment run
func (l *Ledger) Offer(class string, at float64, bytes int) Ticket {
	t := l.ticket(class, at, bytes)
	l.Total.Offer(bytes)
	l.Classes[t.class].Offer(bytes)
	l.Windows[t.window].Offer(bytes)
	return t
}

// Resolve records the outcome of the packet holding ticket t.
//
//fairbench:hotpath per-packet exit of every deployment run
func (l *Ledger) Resolve(t Ticket, o Outcome) {
	l.Total.resolve(t.bytes, o)
	l.Classes[t.class].resolve(t.bytes, o)
	l.Windows[t.window].resolve(t.bytes, o)
}

// ticket finds the class and window rows of a packet, adding them on
// first sight.
func (l *Ledger) ticket(class string, at float64, bytes int) Ticket {
	if class == "" {
		class = StateLegitClass
	}
	c := 0
	for c < len(l.Classes) && l.Classes[c].Class != class {
		c++
	}
	if c == len(l.Classes) {
		//fairlint:allow hotalloc grows once per traffic class; a run sees a handful of classes
		l.Classes = append(l.Classes, ClassRow{Class: class})
	}
	if at < 0 {
		at = 0
	}
	w := int(at / l.window)
	for len(l.Windows) <= w {
		//fairlint:allow hotalloc grows once per availability window; steady state indexes existing rows
		l.Windows = append(l.Windows, Row{})
	}
	return Ticket{bytes: bytes, class: c, window: w}
}

func (m *Row) resolve(bytes int, o Outcome) {
	if o == Lost {
		m.Lose()
		return
	}
	m.Process(bytes, o == Forwarded)
}

// Balance checks exact conservation at the end of a run: every offered
// packet was forwarded, dropped or lost, or is one of the inFlight
// packets still queued in a device. It returns an error wrapping
// ErrUnbalanced otherwise.
func (l *Ledger) Balance(inFlight uint64) error {
	t := l.Total
	if t.OfferedPackets != t.ProcessedPackets+t.LostPackets+inFlight {
		return fmt.Errorf("%w: offered %d != forwarded %d + dropped %d + lost %d + in flight %d",
			ErrUnbalanced, t.OfferedPackets, t.ForwardedPackets, t.ProcessedPackets-t.ForwardedPackets,
			t.LostPackets, inFlight)
	}
	return nil
}

// AvailWindow is one bucket of the availability series.
type AvailWindow struct {
	// Start is the window's start in simulated seconds.
	Start float64
	// Offered and Resolved count the window's packets.
	Offered, Resolved uint64
	// Availability is Resolved/Offered (1 for an idle window).
	Availability float64
}

// AvailSummary aggregates the availability series of one run.
type AvailSummary struct {
	// WindowSeconds is the bucketing interval.
	WindowSeconds float64
	// Windows is the per-window series, in time order.
	Windows []AvailWindow
	// Availability is overall resolved/offered.
	Availability float64
	// MinWindowAvailability is the worst non-idle window.
	MinWindowAvailability float64
	// DegradationDepth is 1 - MinWindowAvailability: how deep the worst
	// service dip went.
	DegradationDepth float64
	// DegradedSeconds is the total time spent in windows below the
	// threshold.
	DegradedSeconds float64
	// RecoverySeconds spans the degraded episode: from the start of the
	// first sub-threshold window to the end of the last, i.e. how long
	// the system took to return (and stay) above threshold. Zero when
	// never degraded.
	RecoverySeconds float64
}

// DefaultAvailabilityThreshold is the per-window availability below
// which a window counts as degraded (three nines would be unmeasurable
// in short simulated windows; 99% is robust at these packet counts).
const DefaultAvailabilityThreshold = 0.99

// Avail aggregates the availability series: a window's packets are
// resolved when the system completed its work on them (forward or
// policy drop). Windows with availability below threshold (use
// DefaultAvailabilityThreshold) count as degraded. It returns
// ErrEmptyWindow if the ledger saw no traffic at all.
func (l *Ledger) Avail(threshold float64) (AvailSummary, error) {
	if len(l.Windows) == 0 {
		return AvailSummary{}, ErrEmptyWindow
	}
	s := AvailSummary{WindowSeconds: l.window, MinWindowAvailability: 1}
	var offered, resolved uint64
	firstDegraded, lastDegraded := -1, -1
	for i, r := range l.Windows {
		w := AvailWindow{
			Start:    float64(i) * l.window,
			Offered:  r.OfferedPackets,
			Resolved: r.ProcessedPackets,
		}
		w.Availability = 1
		if w.Offered > 0 {
			w.Availability = float64(w.Resolved) / float64(w.Offered)
		}
		offered += w.Offered
		resolved += w.Resolved
		if w.Offered > 0 && w.Availability < s.MinWindowAvailability {
			s.MinWindowAvailability = w.Availability
		}
		if w.Offered > 0 && w.Availability < threshold {
			s.DegradedSeconds += l.window
			if firstDegraded < 0 {
				firstDegraded = i
			}
			lastDegraded = i
		}
		s.Windows = append(s.Windows, w)
	}
	if offered == 0 {
		return AvailSummary{}, ErrEmptyWindow
	}
	s.Availability = float64(resolved) / float64(offered)
	s.DegradationDepth = 1 - s.MinWindowAvailability
	if firstDegraded >= 0 {
		s.RecoverySeconds = float64(lastDegraded+1-firstDegraded) * l.window
	}
	return s, nil
}

// String summarises the headline figures.
func (s AvailSummary) String() string {
	return fmt.Sprintf("availability %.4f (min window %.4f, depth %.4f, degraded %.1fms, recovery %.1fms)",
		s.Availability, s.MinWindowAvailability, s.DegradationDepth,
		s.DegradedSeconds*1e3, s.RecoverySeconds*1e3)
}
