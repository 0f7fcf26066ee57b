package sim

import (
	"sort"
	"testing"
)

// TestHeapOrderProperty interleaves pushes and pops on the value heap,
// with times drawn from a small range so exact ties are common, and
// checks every pop against the (at, seq) minimum of a reference list.
// It then schedules a tied batch through Schedule and checks RunAll
// fires it in stable-sorted time order.
func TestHeapOrderProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		s := New()
		var ref []event
		popCheck := func() {
			best := 0
			for i := range ref {
				if ref[i].before(&ref[best]) {
					best = i
				}
			}
			want := ref[best]
			ref = append(ref[:best], ref[best+1:]...)
			if got := s.pop(); got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d: pop = (%v, %d), want (%v, %d)", seed, got.at, got.seq, want.at, want.seq)
			}
		}
		for op := 0; op < 2000; op++ {
			if len(ref) == 0 || rng.Float64() < 0.6 {
				e := event{at: Time(rng.Intn(16)), seq: s.seq}
				s.seq++
				s.push(e)
				ref = append(ref, e)
			} else {
				popCheck()
			}
		}
		for len(ref) > 0 {
			popCheck()
		}
		if s.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after draining", seed, s.Pending())
		}

		// The same order through the public API.
		times := make([]Time, 500)
		var fired []int
		for i := range times {
			times[i] = Time(rng.Intn(16))
			if err := s.Schedule(s.Now()+times[i], mark{id: i, log: &fired}); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]int, len(times))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return times[want[a]] < times[want[b]] })
		s.RunAll()
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: fired[%d] = %d, want %d", seed, i, fired[i], want[i])
			}
		}
	}
}

// mark records its id when fired.
type mark struct {
	id  int
	log *[]int
}

func (m mark) Fire() { *m.log = append(*m.log, m.id) }

// counter counts its firings.
type counter struct{ n int }

func (c *counter) Fire() { c.n++ }

// TestScheduleRunAllocsNothing checks the kernel allocates nothing per
// event once its heap has grown to the working depth: events are
// stored by value and a pointer handler fits the interface word.
func TestScheduleRunAllocsNothing(t *testing.T) {
	s := New()
	h := &counter{}
	batch := func() {
		for i := 0; i < 64; i++ {
			_ = s.Schedule(s.Now()+Time(i%7), h)
		}
		s.RunAll()
	}
	batch() // warm: grow the heap
	if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
		t.Errorf("Schedule+RunAll: %v allocs per 64 events, want 0", allocs)
	}
	if h.n != 64*102 {
		t.Errorf("fired %d events, want %d", h.n, 64*102)
	}
}

// TestAtAllocsNothing checks the func adapter: At with a prebuilt
// func stores it in the event without allocating.
func TestAtAllocsNothing(t *testing.T) {
	s := New()
	n := 0
	fn := func() { n++ }
	batch := func() {
		for i := 0; i < 64; i++ {
			_ = s.At(s.Now()+Time(i%7), fn)
		}
		s.RunAll()
	}
	batch()
	if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
		t.Errorf("At+RunAll: %v allocs per 64 events, want 0", allocs)
	}
	if n != 64*102 {
		t.Errorf("fired %d events, want %d", n, 64*102)
	}
}
