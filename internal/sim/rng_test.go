package sim

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds nearly identical: %d collisions", same)
	}
}

func TestDeriveStableAndIndependent(t *testing.T) {
	root := NewRNG(99)
	a1 := root.Derive("nic").Uint64()
	a2 := NewRNG(99).Derive("nic").Uint64()
	if a1 != a2 {
		t.Error("Derive must be stable for the same name")
	}
	if NewRNG(99).Derive("nic").Uint64() == NewRNG(99).Derive("cpu").Uint64() {
		t.Error("different names should give different streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	var sum float64
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Errorf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn bucket %d count %d, want ≈10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := NewRNG(11)
	const rate = 4.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp draw negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp mean = %v, want %v", mean, 1/rate)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) should panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(13)
	z := NewZipf(r, 100, 1.2)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		k := z.Draw()
		if k < 0 || k >= 100 {
			t.Fatalf("Zipf draw out of range: %d", k)
		}
		counts[k]++
	}
	// Rank 0 must be the most popular, and heavily so.
	if counts[0] < counts[1] {
		t.Errorf("rank 0 (%d) should beat rank 1 (%d)", counts[0], counts[1])
	}
	if counts[0] < n/10 {
		t.Errorf("rank 0 frequency %d too low for s=1.2", counts[0])
	}
	// Tail ranks must still occur (it is a distribution over all ranks).
	tail := 0
	for _, c := range counts[50:] {
		tail += c
	}
	if tail == 0 {
		t.Error("Zipf tail never drawn")
	}
}

func TestZipfPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(n=0) should panic")
		}
	}()
	NewZipf(NewRNG(1), 0, 1)
}

// bisectRank is the binary search Zipf.Draw used before the guide
// table: the first rank whose cumulative weight is >= u.
func bisectRank(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfRankMatchesBisection feeds the guide-table search random
// draws and every boundary it could get wrong — each cumulative weight
// and each bucket edge k/n, with their float neighbours — and requires
// the binary search's answer every time.
func TestZipfRankMatchesBisection(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 1000, 1024, 65537} {
		for _, s := range []float64{0.3, 0.99, 1.1, 2.5} {
			z := NewZipf(NewRNG(1), n, s)
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return // Float64 draws lie in [0, 1)
				}
				if got, want := z.rank(u), bisectRank(z.cum, u); got != want {
					t.Fatalf("n=%d s=%v: rank(%v) = %d, binary search %d", n, s, u, got, want)
				}
			}
			near := func(u float64) {
				check(math.Nextafter(u, -1))
				check(u)
				check(math.Nextafter(u, 2))
			}
			for _, c := range z.cum {
				near(c)
			}
			for k := 0; k <= n; k++ {
				near(float64(k) / float64(n))
			}
			r := NewRNG(uint64(n) ^ math.Float64bits(s))
			for i := 0; i < 200_000; i++ {
				check(r.Float64())
			}
		}
	}

	// u*n can round up into the next bucket: u = 0.9⁻ lies below 9/10,
	// yet int(u*10) is 9. With a cumulative weight of exactly u, the
	// answer sits before the bucket's guide entry, so rank must step
	// back.
	u := math.Nextafter(0.9, 0)
	cum := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, u, 1}
	if int(u*10) != 9 {
		t.Fatalf("int(%v*10) = %d, want the rounded-up bucket 9", u, int(u*10))
	}
	z := &Zipf{cum: cum, guide: guideFor(cum)}
	if got, want := z.rank(u), bisectRank(cum, u); got != want || want != 8 {
		t.Fatalf("rank(%v) = %d, binary search %d, want 8", u, got, want)
	}
}
