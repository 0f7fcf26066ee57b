package measure

import (
	"fmt"
	"sort"
	"strings"
)

// State-pressure metering. Overload experiments need more than a loss
// fraction: they need to know *whose* packets were lost (collateral
// damage to legitimate flows vs successfully-shed attack traffic), how
// full the state tables ran, and how fast entries were being evicted.
// StateMeter samples bounded state tables over simulated time and reads
// per-class traffic outcomes from a Ledger's class rows; its summary
// separates goodput (delivered legitimate traffic) from raw throughput.

// StateLegitClass is the traffic class counted as legitimate for
// goodput and collateral-damage accounting. An empty class is treated
// as legitimate too, so meters fed by class-agnostic generators
// degrade to plain goodput==throughput accounting.
const StateLegitClass = "legit"

// StateProbe exposes one bounded state table to periodic sampling.
// Occupancy and Evictions are closures so the meter never holds a
// reference to device internals.
type StateProbe struct {
	// Name labels the table ("conntrack", "offload-table", ...).
	Name string
	// Capacity is the table bound (entries).
	Capacity int
	// Occupancy returns the current live-entry count.
	Occupancy func() int
	// Evictions returns the cumulative eviction count.
	Evictions func() uint64
}

// StateSample is one periodic snapshot of every probed table, in probe
// registration order.
type StateSample struct {
	// T is the sample's simulated time in seconds.
	T float64
	// Occupancy and Evictions are parallel to the meter's probes.
	Occupancy []int
	Evictions []uint64
}

// StateMeter samples table-pressure series for one run and summarizes
// them with the per-class outcomes of a ledger's class rows.
type StateMeter struct {
	led     *Ledger
	probes  []StateProbe
	samples []StateSample
}

// NewStateMeter builds an empty meter with a ledger of its own, which
// Offer and Deliver record into until Track points it elsewhere.
func NewStateMeter() *StateMeter {
	return &StateMeter{led: &Ledger{window: 1}}
}

// AddProbe registers a table for periodic sampling.
func (m *StateMeter) AddProbe(p StateProbe) {
	m.probes = append(m.probes, p)
}

// Track makes l the source of the meter's per-class outcomes; a
// deployment's RunScenario points its meter at the run's ledger.
func (m *StateMeter) Track(l *Ledger) { m.led = l }

// Offer records a packet of the class entering the system.
func (m *StateMeter) Offer(class string, bytes int) { m.led.Offer(class, 0, bytes) }

// Deliver records a packet of the class forwarded out.
func (m *StateMeter) Deliver(class string, bytes int) {
	m.led.Resolve(m.led.ticket(class, 0, bytes), Forwarded)
}

// Sample snapshots every probed table at simulated time t.
func (m *StateMeter) Sample(t float64) {
	if len(m.probes) == 0 {
		return
	}
	s := StateSample{T: t, Occupancy: make([]int, len(m.probes)), Evictions: make([]uint64, len(m.probes))}
	for i, p := range m.probes {
		if p.Occupancy != nil {
			s.Occupancy[i] = p.Occupancy()
		}
		if p.Evictions != nil {
			s.Evictions[i] = p.Evictions()
		}
	}
	m.samples = append(m.samples, s)
}

// StateClassSummary is one class's outcomes, read from its ledger row.
type StateClassSummary struct {
	Class string
	// Offered counts packets entering the system.
	Offered uint64
	// Delivered counts packets forwarded out; Dropped counts packets
	// the system completed work on and intentionally discarded (policy
	// drops, overflow refusals); Lost counts packets no component could
	// take.
	Delivered, Dropped, Lost uint64
	// OfferedBytes and DeliveredBytes carry the byte totals.
	OfferedBytes, DeliveredBytes uint64
}

// StateTableSummary aggregates one probe's pressure series.
type StateTableSummary struct {
	Name     string
	Capacity int
	// FinalOccupancy and PeakOccupancy come from the sampled series.
	FinalOccupancy, PeakOccupancy int
	// OccupancyFraction is PeakOccupancy/Capacity (0 for an unbounded
	// probe).
	OccupancyFraction float64
	// Evictions is the final cumulative count; EvictionsPerSecond
	// averages it over the run.
	Evictions          uint64
	EvictionsPerSecond float64
}

// StateSummary is the aggregated state-pressure measurement of one run.
type StateSummary struct {
	// DurationSeconds is the measurement window.
	DurationSeconds float64
	// Classes lists per-class outcomes sorted by class name (stable
	// artifact ordering, independent of first-seen order).
	Classes []StateClassSummary
	// Tables lists per-probe pressure summaries in registration order.
	Tables []StateTableSummary
	// Samples is the raw occupancy series for curve artifacts.
	Samples []StateSample
	// GoodputPps/GoodputGbps count delivered *legitimate* traffic only;
	// ThroughputPps/ThroughputGbps count everything delivered. The gap
	// between the two is successfully-forwarded attack traffic.
	GoodputPps, GoodputGbps       float64
	ThroughputPps, ThroughputGbps float64
	// CollateralFraction is (dropped+lost)/offered over legitimate
	// traffic: the share of legitimate packets the system failed, the
	// overload experiments' headline damage figure.
	CollateralFraction float64
}

// Summarize aggregates the meter over a run of the given duration. It
// returns ErrEmptyWindow when the ledger saw no traffic.
func (m *StateMeter) Summarize(durationSeconds float64) (StateSummary, error) {
	if len(m.led.Classes) == 0 {
		return StateSummary{}, ErrEmptyWindow
	}
	if !(durationSeconds > 0) {
		return StateSummary{}, fmt.Errorf("measure: invalid state-pressure window %v", durationSeconds)
	}
	s := StateSummary{DurationSeconds: durationSeconds, Samples: m.samples}
	for _, r := range m.led.Classes {
		s.Classes = append(s.Classes, StateClassSummary{
			Class:          r.Class,
			Offered:        r.OfferedPackets,
			Delivered:      r.ForwardedPackets,
			Dropped:        r.ProcessedPackets - r.ForwardedPackets,
			Lost:           r.LostPackets,
			OfferedBytes:   r.OfferedBits / 8,
			DeliveredBytes: r.ForwardedBits / 8,
		})
	}
	sort.Slice(s.Classes, func(i, j int) bool { return s.Classes[i].Class < s.Classes[j].Class })
	var legit StateClassSummary
	var deliveredPkts, deliveredBytes uint64
	var offered uint64
	for _, c := range s.Classes {
		deliveredPkts += c.Delivered
		deliveredBytes += c.DeliveredBytes
		offered += c.Offered
		if c.Class == StateLegitClass {
			legit = c
		}
	}
	if offered == 0 {
		return StateSummary{}, ErrEmptyWindow
	}
	s.GoodputPps = float64(legit.Delivered) / durationSeconds
	s.GoodputGbps = float64(legit.DeliveredBytes) * 8 / durationSeconds / 1e9
	s.ThroughputPps = float64(deliveredPkts) / durationSeconds
	s.ThroughputGbps = float64(deliveredBytes) * 8 / durationSeconds / 1e9
	if legit.Offered > 0 {
		s.CollateralFraction = float64(legit.Dropped+legit.Lost) / float64(legit.Offered)
	}
	for i, p := range m.probes {
		t := StateTableSummary{Name: p.Name, Capacity: p.Capacity}
		for _, sample := range m.samples {
			if sample.Occupancy[i] > t.PeakOccupancy {
				t.PeakOccupancy = sample.Occupancy[i]
			}
		}
		if p.Occupancy != nil {
			t.FinalOccupancy = p.Occupancy()
			if t.FinalOccupancy > t.PeakOccupancy {
				t.PeakOccupancy = t.FinalOccupancy
			}
		}
		if p.Evictions != nil {
			t.Evictions = p.Evictions()
		}
		if p.Capacity > 0 {
			t.OccupancyFraction = float64(t.PeakOccupancy) / float64(p.Capacity)
		}
		t.EvictionsPerSecond = float64(t.Evictions) / durationSeconds
		s.Tables = append(s.Tables, t)
	}
	return s, nil
}

// String renders the headline figures: goodput vs throughput, the
// collateral fraction, and each table's pressure.
func (s StateSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "goodput %.3f Gb/s of %.3f Gb/s delivered (collateral %.4f)",
		s.GoodputGbps, s.ThroughputGbps, s.CollateralFraction)
	for _, t := range s.Tables {
		fmt.Fprintf(&b, "; %s %d/%d peak (%.0f evictions/s)",
			t.Name, t.PeakOccupancy, t.Capacity, t.EvictionsPerSecond)
	}
	return b.String()
}
