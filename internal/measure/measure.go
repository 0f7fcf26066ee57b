// Package measure provides the meters a benchmark harness attaches to a
// simulated deployment: a packet-outcome ledger (throughput, loss,
// per-class and per-window availability accounting from one set of
// counters), latency capture into HDR histograms, and per-flow
// fairness accounting. The meters produce the performance half of the
// (performance, cost) points the comparison methodology consumes.
package measure

import (
	"sort"
	"time"

	"fairbench/internal/packet"
	"fairbench/internal/perf"
)

// Row counts one set of packets by outcome, in packets and bits. It is
// the ledger's only counter type: the run total, each traffic class and
// each availability window is a Row.
type Row struct {
	// Offered counts everything the traffic source emitted.
	OfferedPackets, OfferedBits uint64
	// Processed counts packets the system completed work on — whether
	// the verdict was forward or an intended policy drop. This is the
	// "useful work" rate.
	ProcessedPackets, ProcessedBits uint64
	// Forwarded counts packets that left the system (accept/rewrite).
	ForwardedPackets, ForwardedBits uint64
	// Lost counts packets dropped due to overload (queue or pipeline
	// overflow) — the loss RFC 2544 throughput searches drive to zero.
	LostPackets uint64
}

// ThroughputMeter is a Row used on its own, outside a Ledger.
type ThroughputMeter = Row

// Offer records an offered packet of frameBytes.
func (m *Row) Offer(frameBytes int) {
	m.OfferedPackets++
	m.OfferedBits += uint64(frameBytes) * 8
}

// Process records a completed packet; forwarded says whether it left
// the system (vs an intended policy drop).
func (m *Row) Process(frameBytes int, forwarded bool) {
	m.ProcessedPackets++
	m.ProcessedBits += uint64(frameBytes) * 8
	if forwarded {
		m.ForwardedPackets++
		m.ForwardedBits += uint64(frameBytes) * 8
	}
}

// Lose records an overload drop.
func (m *Row) Lose() { m.LostPackets++ }

// LossFraction returns lost/offered, the RFC 2544 loss figure.
func (m *Row) LossFraction() float64 {
	if m.OfferedPackets == 0 {
		return 0
	}
	return float64(m.LostPackets) / float64(m.OfferedPackets)
}

// Processed returns the processed-work throughput over elapsed.
func (m *Row) Processed(elapsed time.Duration) perf.Throughput {
	return perf.Throughput{Bits: m.ProcessedBits, Packets: m.ProcessedPackets, Elapsed: elapsed}
}

// Forwarded returns the forwarded throughput over elapsed.
func (m *Row) Forwarded(elapsed time.Duration) perf.Throughput {
	return perf.Throughput{Bits: m.ForwardedBits, Packets: m.ForwardedPackets, Elapsed: elapsed}
}

// Offered returns the offered load over elapsed.
func (m *Row) Offered(elapsed time.Duration) perf.Throughput {
	return perf.Throughput{Bits: m.OfferedBits, Packets: m.OfferedPackets, Elapsed: elapsed}
}

// LatencyMeter captures per-packet latencies into an HDR histogram
// (nanosecond units).
type LatencyMeter struct {
	hist *perf.Histogram
}

// NewLatencyMeter builds a meter with default histogram resolution.
func NewLatencyMeter() *LatencyMeter {
	return &LatencyMeter{hist: perf.NewHistogram(0)}
}

// RecordSeconds records a latency observed in seconds.
func (l *LatencyMeter) RecordSeconds(s float64) error {
	return l.hist.Record(s * 1e9)
}

// Summary returns distribution statistics in nanoseconds.
func (l *LatencyMeter) Summary() perf.Summary { return l.hist.Summarize() }

// P50Micros and P99Micros return common quantiles in microseconds.
func (l *LatencyMeter) P50Micros() float64 { return l.hist.Quantile(0.5) / 1e3 }

// P99Micros returns the 99th percentile latency in microseconds.
func (l *LatencyMeter) P99Micros() float64 { return l.hist.Quantile(0.99) / 1e3 }

// Count returns the number of recorded samples.
func (l *LatencyMeter) Count() uint64 { return l.hist.Count() }

// FairnessMeter accumulates per-flow forwarded bytes for Jain's index.
type FairnessMeter struct {
	bytes map[packet.FiveTuple]uint64
}

// NewFairnessMeter builds a meter.
func NewFairnessMeter() *FairnessMeter {
	return &FairnessMeter{bytes: make(map[packet.FiveTuple]uint64)}
}

// Record adds forwarded bytes for a flow.
func (f *FairnessMeter) Record(ft packet.FiveTuple, frameBytes int) {
	f.bytes[ft] += uint64(frameBytes)
}

// Flows returns the number of flows observed.
func (f *FairnessMeter) Flows() int { return len(f.bytes) }

// JFI computes Jain's fairness index over the per-flow byte counts.
// Allocations are sorted before summing: float addition is not
// associative, so map iteration order would otherwise leak into the
// index's low bits and break byte-identical replay.
func (f *FairnessMeter) JFI() float64 {
	alloc := make([]float64, 0, len(f.bytes))
	for _, b := range f.bytes {
		alloc = append(alloc, float64(b))
	}
	sort.Float64s(alloc)
	return perf.Jain(alloc)
}
