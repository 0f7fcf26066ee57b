package workload

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"fairbench/internal/packet"
	"fairbench/internal/sim"
)

func TestFixedSize(t *testing.T) {
	f := FixedSize(64)
	rng := sim.NewRNG(1)
	for i := 0; i < 10; i++ {
		if f.Next(rng) != 64 {
			t.Fatal("fixed size must be constant")
		}
	}
	if f.Mean() != 64 || f.Name() != "fixed-64" {
		t.Errorf("Mean/Name = %v/%q", f.Mean(), f.Name())
	}
}

func TestIMIXDistribution(t *testing.T) {
	m := IMIX()
	rng := sim.NewRNG(2)
	counts := map[int]int{}
	const n = 120000
	for i := 0; i < n; i++ {
		counts[m.Next(rng)]++
	}
	// Weights 7:4:1 over 60/594/1514.
	if got := float64(counts[60]) / n; math.Abs(got-7.0/12) > 0.01 {
		t.Errorf("60B fraction = %v, want ≈0.583", got)
	}
	if got := float64(counts[594]) / n; math.Abs(got-4.0/12) > 0.01 {
		t.Errorf("594B fraction = %v, want ≈0.333", got)
	}
	if got := float64(counts[1514]) / n; math.Abs(got-1.0/12) > 0.01 {
		t.Errorf("1514B fraction = %v, want ≈0.083", got)
	}
	wantMean := (7.0*60 + 4*594 + 1*1514) / 12
	if math.Abs(m.Mean()-wantMean) > 1e-9 {
		t.Errorf("Mean = %v, want %v", m.Mean(), wantMean)
	}
}

func TestNewMixValidation(t *testing.T) {
	if _, err := NewMix("m", nil, nil); err == nil {
		t.Error("empty mix should fail")
	}
	if _, err := NewMix("m", []int{64}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := NewMix("m", []int{10}, []float64{1}); err == nil {
		t.Error("sub-minimum frame should fail")
	}
	if _, err := NewMix("m", []int{64}, []float64{0}); err == nil {
		t.Error("zero weight should fail")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	mk := func() []uint64 {
		g, err := NewGenerator(Spec{Flows: 64, ZipfSkew: 1.1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var hashes []uint64
		for i := 0; i < 500; i++ {
			p, err := g.Next()
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, p.Flow.FastHash()^uint64(len(p.Frame)))
		}
		return hashes
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generator not deterministic at packet %d", i)
		}
	}
}

func TestGeneratorFramesParseAndMatchFlow(t *testing.T) {
	g, err := NewGenerator(Spec{Flows: 32, TCPFraction: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := packet.NewParser()
	for i := 0; i < 500; i++ {
		pk, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Parse(pk.Frame); err != nil {
			t.Fatalf("generated frame %d does not parse: %v", i, err)
		}
		ft, ok := p.FiveTuple()
		if !ok || ft != pk.Flow {
			t.Fatalf("frame five-tuple %v != declared flow %v", ft, pk.Flow)
		}
	}
}

func TestGeneratorAttackFraction(t *testing.T) {
	g, err := NewGenerator(Spec{Flows: 4000, AttackFraction: 0.65, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	attack := 0
	const n = 20000
	for i := 0; i < n; i++ {
		pk, _ := g.Next()
		if pk.Attack {
			attack++
			if pk.Flow.Src[0] != 10 || pk.Flow.Src[1] != 66 {
				t.Fatalf("attack flow not in 10.66/16: %v", pk.Flow.Src)
			}
		} else if pk.Flow.Src[1] == 66 {
			t.Fatalf("benign flow in attack prefix: %v", pk.Flow.Src)
		}
	}
	frac := float64(attack) / n
	if math.Abs(frac-0.65) > 0.03 {
		t.Errorf("attack fraction = %v, want ≈0.65", frac)
	}
}

func TestGeneratorZipfSkewsPopularity(t *testing.T) {
	g, err := NewGenerator(Spec{Flows: 1000, ZipfSkew: 1.3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[packet.FiveTuple]int)
	for i := 0; i < 20000; i++ {
		pk, _ := g.Next()
		counts[pk.Flow]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 2000 {
		t.Errorf("hottest flow count = %d; Zipf 1.3 should concentrate traffic", max)
	}
	// Uniform comparison.
	gu, _ := NewGenerator(Spec{Flows: 1000, Seed: 6})
	uc := make(map[packet.FiveTuple]int)
	for i := 0; i < 20000; i++ {
		pk, _ := gu.Next()
		uc[pk.Flow]++
	}
	umax := 0
	for _, c := range uc {
		if c > umax {
			umax = c
		}
	}
	if umax >= max {
		t.Errorf("uniform max %d should be far below zipf max %d", umax, max)
	}
}

func TestGeneratorSpecValidation(t *testing.T) {
	if _, err := NewGenerator(Spec{AttackFraction: 1.5}); err == nil {
		t.Error("attack fraction > 1 should fail")
	}
	if _, err := NewGenerator(Spec{TCPFraction: -0.1}); err == nil {
		t.Error("negative TCP fraction should fail")
	}
}

func TestNextCopyIsPrivate(t *testing.T) {
	g, _ := NewGenerator(Spec{Flows: 1, Seed: 7})
	a, err := g.NextCopy()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := g.Next()
	if &a.Frame[0] == &b.Frame[0] {
		t.Fatal("NextCopy must not alias the template")
	}
	orig := b.Frame[20]
	a.Frame[20] ^= 0xff
	if b.Frame[20] != orig {
		t.Error("mutating the copy must not affect the template")
	}
}

// TestGeneratorTemplateCache pins the template cache: every frame is
// exactly what buildFrame makes for its flow and size, a repeated
// (flow, size) hands back the same backing array, a warm Next
// allocates nothing, the shared payload filler is never written, and
// NextCopy still returns a private copy.
func TestGeneratorTemplateCache(t *testing.T) {
	fillerBefore := bytes.Clone(filler)
	g, err := NewGenerator(Spec{Flows: 24, ZipfSkew: 1.1, TCPFraction: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		flow packet.FiveTuple
		size int
	}
	seen := map[key]*byte{}
	for i := 0; i < 5000; i++ {
		pk, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildFrame(pk.Flow, len(pk.Frame))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pk.Frame, want) {
			t.Fatalf("packet %d: frame differs from buildFrame(%v, %d)", i, pk.Flow, len(pk.Frame))
		}
		k := key{pk.Flow, len(pk.Frame)}
		if first, ok := seen[k]; !ok {
			seen[k] = &pk.Frame[0]
		} else if first != &pk.Frame[0] {
			t.Fatalf("packet %d: repeated (flow, size) got a new frame", i)
		}
	}
	if len(g.templates) != len(seen) {
		t.Fatalf("%d templates cached for %d distinct (flow, size) pairs", len(g.templates), len(seen))
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := g.Next(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Next allocates %v times per packet, want 0", allocs)
	}
	if !bytes.Equal(filler, fillerBefore) {
		t.Fatal("generating packets wrote the shared payload filler")
	}

	one, err := NewGenerator(Spec{Flows: 1, Sizes: FixedSize(128), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tmpl, _ := one.Next()
	pristine := bytes.Clone(tmpl.Frame)
	cp, err := one.NextCopy()
	if err != nil {
		t.Fatal(err)
	}
	if &cp.Frame[0] == &tmpl.Frame[0] || !bytes.Equal(cp.Frame, tmpl.Frame) {
		t.Fatal("NextCopy must return an equal frame in private memory")
	}
	cp.Frame[len(cp.Frame)-1] ^= 0xff
	if again, _ := one.Next(); !bytes.Equal(again.Frame, pristine) || !bytes.Equal(filler, fillerBefore) {
		t.Fatal("mutating a NextCopy frame changed the template or the filler")
	}
}

func TestArrivalProcesses(t *testing.T) {
	rng := sim.NewRNG(8)
	if got := (CBR{}).NextGap(rng, 1000); got != 0.001 {
		t.Errorf("CBR gap = %v", got)
	}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		g := (Poisson{}).NextGap(rng, 1000)
		if g < 0 {
			t.Fatal("negative gap")
		}
		sum += g
	}
	if mean := sum / n; math.Abs(mean-0.001) > 0.0001 {
		t.Errorf("Poisson mean gap = %v, want 0.001", mean)
	}
	if (CBR{}).Name() != "cbr" || (Poisson{}).Name() != "poisson" {
		t.Error("arrival names")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	g, _ := NewGenerator(Spec{Flows: 16, Seed: 10})
	var buf bytes.Buffer
	if err := Record(&buf, g, CBR{}, 1e6, 100); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var prevTS uint64
	n := 0
	p := packet.NewParser()
	for {
		rec, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.TimestampNanos < prevTS {
			t.Fatal("timestamps must be monotone")
		}
		prevTS = rec.TimestampNanos
		if err := p.Parse(rec.Frame); err != nil {
			t.Fatalf("replayed frame does not parse: %v", err)
		}
		n++
	}
	if n != 100 || tr.Count() != 100 {
		t.Errorf("replayed %d records", n)
	}
	// CBR at 1 Mpps: last timestamp ≈ 100 µs.
	if prevTS < 99_000 || prevTS > 101_000 {
		t.Errorf("last timestamp = %d ns, want ≈100µs", prevTS)
	}
}

func TestTraceReaderRejectsGarbage(t *testing.T) {
	if _, err := NewTraceReader(bytes.NewReader([]byte("not a trace"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("err = %v", err)
	}
}

func TestTraceWriterRejectsOversizeFrame(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(TraceRecord{Frame: make([]byte, 70000)}); err == nil {
		t.Error("oversize frame should fail")
	}
}

func TestRecordValidation(t *testing.T) {
	g, _ := NewGenerator(Spec{Flows: 1})
	var buf bytes.Buffer
	if err := Record(&buf, g, CBR{}, 0, 10); err == nil {
		t.Error("zero pps should fail")
	}
	if err := Record(&buf, g, CBR{}, 100, -1); err == nil {
		t.Error("negative count should fail")
	}
}
