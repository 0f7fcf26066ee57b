package measure

import (
	"errors"
	"sort"
	"strings"
	"testing"
)

func TestStateMeterGoodputVsThroughput(t *testing.T) {
	l, err := NewLedger(1)
	if err != nil {
		t.Fatal(err)
	}
	// 10 legit offered: 8 delivered, 1 policy-dropped, 1 lost.
	for i := 0; i < 10; i++ {
		o := Forwarded
		switch i {
		case 8:
			o = Dropped
		case 9:
			o = Lost
		}
		l.Resolve(l.Offer("legit", 0, 100), o)
	}
	// 5 flood offered, 2 delivered (leaked through), 3 dropped.
	for i := 0; i < 5; i++ {
		o := Dropped
		if i < 2 {
			o = Forwarded
		}
		l.Resolve(l.Offer("synflood", 0, 60), o)
	}
	m := NewStateMeter()
	m.Track(l)

	s, err := m.Summarize(2)
	if err != nil {
		t.Fatal(err)
	}
	if s.GoodputPps != 4 { // 8 delivered / 2s
		t.Errorf("GoodputPps = %v, want 4", s.GoodputPps)
	}
	if s.ThroughputPps != 5 { // (8+2) / 2s
		t.Errorf("ThroughputPps = %v, want 5", s.ThroughputPps)
	}
	if got, want := s.GoodputGbps, float64(800)*8/2/1e9; got != want {
		t.Errorf("GoodputGbps = %v, want %v", got, want)
	}
	if s.CollateralFraction != 0.2 { // (1 drop + 1 loss) / 10 offered
		t.Errorf("CollateralFraction = %v, want 0.2", s.CollateralFraction)
	}
	want := []StateClassSummary{
		{Class: "legit", Offered: 10, Delivered: 8, Dropped: 1, Lost: 1, OfferedBytes: 1000, DeliveredBytes: 800},
		{Class: "synflood", Offered: 5, Delivered: 2, Dropped: 3, OfferedBytes: 300, DeliveredBytes: 120},
	}
	if len(s.Classes) != len(want) {
		t.Fatalf("classes = %+v", s.Classes)
	}
	for i := range want {
		if s.Classes[i] != want[i] {
			t.Errorf("class %d = %+v, want %+v", i, s.Classes[i], want[i])
		}
	}
}

func TestStateMeterEmptyClassIsLegit(t *testing.T) {
	m := NewStateMeter()
	m.Offer("", 100)
	m.Deliver("", 100)
	s, err := m.Summarize(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.GoodputPps != 1 || s.ThroughputPps != 1 {
		t.Errorf("goodput/throughput = %v/%v", s.GoodputPps, s.ThroughputPps)
	}
	if len(s.Classes) != 1 || s.Classes[0].Class != StateLegitClass {
		t.Errorf("classes = %+v", s.Classes)
	}
}

// TestStateSummaryClassOrderDeterministic: the ledger keeps classes in
// first-seen order, and the summary must render them sorted by class
// name every time, regardless of that order — artifact byte-identity
// across runs depends on it.
func TestStateSummaryClassOrderDeterministic(t *testing.T) {
	insertions := [][]string{
		{"synflood", "legit", "amplify", "attack"},
		{"attack", "amplify", "legit", "synflood"},
		{"legit", "attack", "synflood", "amplify"},
	}
	var first string
	for trial, order := range insertions {
		m := NewStateMeter()
		for _, class := range order {
			m.Offer(class, 100)
			m.Deliver(class, 100)
		}
		s, err := m.Summarize(1)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, c := range s.Classes {
			names = append(names, c.Class)
		}
		if !sort.StringsAreSorted(names) {
			t.Fatalf("trial %d: classes not sorted: %v", trial, names)
		}
		if trial == 0 {
			first = strings.Join(names, ",") + "|" + s.String()
			continue
		}
		if got := strings.Join(names, ",") + "|" + s.String(); got != first {
			t.Fatalf("trial %d rendered differently:\n  %s\n  %s", trial, got, first)
		}
	}
}

func TestStateMeterProbesAndSamples(t *testing.T) {
	occ, ev := 0, uint64(0)
	m := NewStateMeter()
	m.AddProbe(StateProbe{
		Name: "table", Capacity: 100,
		Occupancy: func() int { return occ },
		Evictions: func() uint64 { return ev },
	})
	m.Offer("legit", 60)
	m.Deliver("legit", 60)
	occ, ev = 40, 5
	m.Sample(0.5)
	occ, ev = 80, 20
	m.Sample(1.0)
	occ = 30 // final occupancy below peak
	s, err := m.Summarize(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Samples) != 2 || s.Samples[1].Occupancy[0] != 80 {
		t.Fatalf("samples = %+v", s.Samples)
	}
	tb := s.Tables[0]
	if tb.PeakOccupancy != 80 || tb.FinalOccupancy != 30 {
		t.Errorf("peak/final = %d/%d", tb.PeakOccupancy, tb.FinalOccupancy)
	}
	if tb.OccupancyFraction != 0.8 {
		t.Errorf("occupancy fraction = %v", tb.OccupancyFraction)
	}
	if tb.Evictions != 20 || tb.EvictionsPerSecond != 10 {
		t.Errorf("evictions = %d (%v/s)", tb.Evictions, tb.EvictionsPerSecond)
	}
}

func TestStateMeterEmptyWindow(t *testing.T) {
	if _, err := NewStateMeter().Summarize(1); !errors.Is(err, ErrEmptyWindow) {
		t.Errorf("empty meter = %v, want ErrEmptyWindow", err)
	}
	m := NewStateMeter()
	m.Offer("legit", 1)
	if _, err := m.Summarize(0); err == nil {
		t.Error("zero duration should fail")
	}
}
