package measure

import (
	"errors"
	"math"
	"testing"
)

func TestCheckFinite(t *testing.T) {
	if err := CheckFinite("x", 1.5); err != nil {
		t.Errorf("finite value rejected: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := CheckFinite("x", v)
		if err == nil {
			t.Errorf("CheckFinite(%v) accepted", v)
			continue
		}
		if !errors.Is(err, ErrNonFinite) {
			t.Errorf("CheckFinite(%v) error %v does not wrap ErrNonFinite", v, err)
		}
	}
}

func newLedger(t *testing.T, window float64) *Ledger {
	t.Helper()
	l, err := NewLedger(window)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// settle offers one packet at time at and resolves it as o.
func settle(l *Ledger, class string, at float64, bytes int, o Outcome) {
	l.Resolve(l.Offer(class, at, bytes), o)
}

// TestAvailabilityMeterEmpty: the ledger's availability view of a run
// that saw no traffic is ErrEmptyWindow, not a 0/0.
func TestAvailabilityMeterEmpty(t *testing.T) {
	if _, err := newLedger(t, 0.001).Avail(DefaultAvailabilityThreshold); !errors.Is(err, ErrEmptyWindow) {
		t.Errorf("empty ledger Avail error = %v, want ErrEmptyWindow", err)
	}
}

// TestNewAvailabilityMeterValidation: the ledger's availability window
// must be positive and finite.
func TestNewAvailabilityMeterValidation(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewLedger(w); err == nil {
			t.Errorf("window %v accepted", w)
		}
	}
}

// TestLedgerRowsAgree: every offer and resolve lands in the total, one
// class row and one window row, so the class rows and the window rows
// each sum to the total row.
func TestLedgerRowsAgree(t *testing.T) {
	l := newLedger(t, 0.001)
	outcomes := []Outcome{Forwarded, Dropped, Lost}
	classes := []string{"", "legit", "synflood", "amplify"}
	var pending []Ticket
	for i := 0; i < 60; i++ {
		tk := l.Offer(classes[i%len(classes)], float64(i)*1e-4, 60+i)
		if i%7 == 0 {
			pending = append(pending, tk) // still in flight
			continue
		}
		l.Resolve(tk, outcomes[i%len(outcomes)])
	}
	if len(l.Classes) != 3 {
		t.Fatalf("classes = %+v, want the empty class folded into legit", l.Classes)
	}
	if l.Classes[0].Class != StateLegitClass {
		t.Errorf("first class = %q, want %q", l.Classes[0].Class, StateLegitClass)
	}
	sum := func(rows []Row) Row {
		var s Row
		for _, r := range rows {
			s.OfferedPackets += r.OfferedPackets
			s.OfferedBits += r.OfferedBits
			s.ProcessedPackets += r.ProcessedPackets
			s.ProcessedBits += r.ProcessedBits
			s.ForwardedPackets += r.ForwardedPackets
			s.ForwardedBits += r.ForwardedBits
			s.LostPackets += r.LostPackets
		}
		return s
	}
	var classRows []Row
	for _, c := range l.Classes {
		classRows = append(classRows, c.Row)
	}
	if got := sum(classRows); got != l.Total {
		t.Errorf("class rows sum to %+v, total %+v", got, l.Total)
	}
	if got := sum(l.Windows); got != l.Total {
		t.Errorf("window rows sum to %+v, total %+v", got, l.Total)
	}
	if len(l.Windows) != 6 {
		t.Errorf("windows = %d, want 6", len(l.Windows))
	}
	if err := l.Balance(uint64(len(pending))); err != nil {
		t.Errorf("balanced ledger: %v", err)
	}
	if err := l.Balance(0); !errors.Is(err, ErrUnbalanced) {
		t.Errorf("Balance without the in-flight packets = %v, want ErrUnbalanced", err)
	}
	for _, tk := range pending {
		l.Resolve(tk, Lost)
	}
	if err := l.Balance(0); err != nil {
		t.Errorf("after draining: %v", err)
	}
}

func TestOutcomeLabels(t *testing.T) {
	for o, want := range map[Outcome]string{Forwarded: "forward", Dropped: "drop", Lost: "loss"} {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", o, got, want)
		}
	}
}

// TestLedgerSteadyStateAllocFree: once a run's classes and windows
// exist, offering and resolving allocate nothing.
func TestLedgerSteadyStateAllocFree(t *testing.T) {
	l := newLedger(t, 1)
	settle(l, "legit", 0, 64, Forwarded)
	if n := testing.AllocsPerRun(1000, func() {
		settle(l, "legit", 0.5, 64, Dropped)
	}); n != 0 {
		t.Errorf("Offer+Resolve allocated %v times per packet, want 0", n)
	}
}

func TestAvailabilitySummary(t *testing.T) {
	l := newLedger(t, 0.001)
	// Three windows: healthy, half-lost (the fault), healthy again.
	for i := 0; i < 10; i++ {
		settle(l, "", float64(i)*1e-4, 64, Forwarded)
	}
	for i := 0; i < 10; i++ {
		o := Dropped // a policy drop is resolved service
		if i >= 5 {
			o = Lost
		}
		settle(l, "", 0.001+float64(i)*1e-4, 64, o)
	}
	for i := 0; i < 10; i++ {
		settle(l, "", 0.002+float64(i)*1e-4, 64, Forwarded)
	}
	s, err := l.Avail(DefaultAvailabilityThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Availability, 25.0/30; math.Abs(got-want) > 1e-9 {
		t.Errorf("availability = %v, want %v", got, want)
	}
	if got := s.MinWindowAvailability; got != 0.5 {
		t.Errorf("min window availability = %v, want 0.5", got)
	}
	if got := s.DegradationDepth; got != 0.5 {
		t.Errorf("degradation depth = %v, want 0.5", got)
	}
	if got := s.DegradedSeconds; math.Abs(got-0.001) > 1e-12 {
		t.Errorf("degraded seconds = %v, want 0.001", got)
	}
	if got := s.RecoverySeconds; math.Abs(got-0.001) > 1e-12 {
		t.Errorf("recovery seconds = %v, want 0.001 (one degraded window)", got)
	}
	if len(s.Windows) != 3 {
		t.Errorf("windows = %d, want 3", len(s.Windows))
	}
}

func TestAvailabilityAttributedToArrivalWindow(t *testing.T) {
	l := newLedger(t, 0.001)
	// A packet arriving in window 0 is resolved (much) later, after a
	// window-1 arrival; the outcome must land in window 0, not in the
	// resolution window.
	early := l.Offer("", 0.0005, 64)
	l.Offer("", 0.0015, 64)
	l.Resolve(early, Forwarded)
	s, err := l.Avail(DefaultAvailabilityThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if s.Windows[0].Availability != 1 {
		t.Errorf("window 0 availability = %v, want 1", s.Windows[0].Availability)
	}
	if s.Windows[1].Availability != 0 {
		t.Errorf("window 1 availability = %v, want 0 (unresolved offer)", s.Windows[1].Availability)
	}
}

func TestAvailabilityRecoverySpansEpisode(t *testing.T) {
	l := newLedger(t, 0.001)
	// Degraded in windows 1 and 3 (healthy gap in 2): recovery spans
	// from the first degraded window to the end of the last.
	for w := 0; w < 5; w++ {
		ok := w != 1 && w != 3
		for i := 0; i < 4; i++ {
			o := Forwarded
			if !ok && i%2 != 0 {
				o = Lost
			}
			settle(l, "", float64(w)*0.001+float64(i)*1e-4, 64, o)
		}
	}
	s, err := l.Avail(DefaultAvailabilityThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.DegradedSeconds; math.Abs(got-0.002) > 1e-12 {
		t.Errorf("degraded seconds = %v, want 0.002", got)
	}
	if got := s.RecoverySeconds; math.Abs(got-0.003) > 1e-12 {
		t.Errorf("recovery seconds = %v, want 0.003 (windows 1..3)", got)
	}
}
