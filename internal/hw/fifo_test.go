package hw

import (
	"testing"

	"fairbench/internal/sim"
)

// completion is one delivered completion, as seen by a recorder.
type completion struct {
	dev string
	id  int
	so  Sojourn
	at  sim.Time
}

// recorder logs each completion with its device, submission index and
// firing time.
type recorder struct {
	s   *sim.Sim
	dev string
	id  int
	log *[]completion
}

func (r recorder) Complete(so Sojourn) {
	*r.log = append(*r.log, completion{r.dev, r.id, so, r.s.Now()})
}

// refQueue is the devices' FIFO service arithmetic written out once:
// start = max(now, nextFree), finish = start + service. It yields the
// sojourn each submission must report.
type refQueue struct{ nextFree sim.Time }

func (q *refQueue) submit(now sim.Time, service, fixed float64) (Sojourn, sim.Time) {
	start := max(q.nextFree, now)
	q.nextFree = start + sim.Time(service)
	return Sojourn{WaitSeconds: float64(start - now), ServiceSeconds: service, FixedSeconds: fixed}, q.nextFree
}

// TestDeviceCompletionsFIFO queues a backlog on a Core, a SmartNIC and
// an FPGA that share one timeline, derates every device mid-backlog,
// and checks each device completes its packets in submission order,
// at the computed finish times, with the computed sojourns. The three
// devices have equal service times, so their completions tie across
// devices at every step; a final burst at a large clock value, where
// the service time is below the clock's resolution, makes a device's
// own completions tie as well.
func TestDeviceCompletionsFIFO(t *testing.T) {
	s := sim.New()
	core := NewCore("core", s, CPUConfig{FreqHz: 1e9, OverheadCycles: 600, QueueDepth: 64, FixedLatencySeconds: 3e-6})
	sn := NewSmartNIC("snic", s, SmartNICConfig{CapacityPps: 1e6, OffloadLatencySeconds: 2e-6})
	fpga := NewFPGA("fpga", s, FPGAConfig{CapacityPps: 1e6, PipelineLatencySeconds: 1e-6})
	ft := flow(1)
	if !sn.Install(ft) {
		t.Fatal("install failed")
	}

	var got []completion
	want := map[string][]completion{}
	refs := map[string]*refQueue{"core": {}, "snic": {}, "fpga": {}}
	next := map[string]int{}
	expect := func(dev string, service, fixed float64) int {
		so, finish := refs[dev].submit(s.Now(), service, fixed)
		id := next[dev]
		next[dev]++
		want[dev] = append(want[dev], completion{dev, id, so, finish})
		return id
	}
	burst := func(n int) {
		for i := 0; i < n; i++ {
			id := expect("core", core.ServiceSeconds(400)*core.slowdown(), 3e-6)
			if !core.Submit(400, recorder{s, "core", id, &got}) {
				t.Fatalf("core rejected packet %d", id)
			}
			id = expect("snic", 1/1e6*sn.slowdown(), 2e-6)
			if !sn.Offload(ft, recorder{s, "snic", id, &got}) {
				t.Fatalf("smartnic rejected packet %d", id)
			}
			id = expect("fpga", 1/1e6*fpga.slowdown(), 1e-6)
			if !fpga.SubmitFlow(ft, recorder{s, "fpga", id, &got}) {
				t.Fatalf("fpga rejected packet %d", id)
			}
		}
	}
	derate := func(f float64) {
		core.SetDerate(f)
		sn.SetDerate(f)
		fpga.SetDerate(f)
	}
	const late = sim.Time(1 << 34) // service times vanish below this clock's ulp
	steps := []struct {
		at sim.Time
		fn func()
	}{
		{0, func() { burst(8) }},
		{3.5e-6, func() { derate(0.5); burst(8) }},
		{10e-6, func() { derate(1); burst(4) }},
		{late, func() { burst(6) }},
	}
	for _, st := range steps {
		if err := s.At(st.at, st.fn); err != nil {
			t.Fatal(err)
		}
	}
	s.RunAll()

	for dev, ws := range want {
		var gs []completion
		for _, c := range got {
			if c.dev == dev {
				gs = append(gs, c)
			}
		}
		if len(gs) != len(ws) {
			t.Fatalf("%s: %d completions, want %d", dev, len(gs), len(ws))
		}
		for i := range ws {
			if gs[i] != ws[i] {
				t.Errorf("%s completion %d = %+v, want %+v", dev, i, gs[i], ws[i])
			}
		}
		if last := ws[len(ws)-1]; last.at != late || ws[len(ws)-2].at != late {
			t.Errorf("%s: the late burst should complete at one tied time, got %v and %v", dev, ws[len(ws)-2].at, last.at)
		}
	}
	if core.Served != 26 || core.QueueLen() != 0 {
		t.Errorf("core served %d, queue %d; want 26, 0", core.Served, core.QueueLen())
	}
}

// TestNilCompleterCounts checks a nil Completer is accepted: the
// packet is served and counted, and its completion event still runs.
func TestNilCompleterCounts(t *testing.T) {
	s := sim.New()
	core := NewCore("core", s, CPUConfig{})
	sn := NewSmartNIC("snic", s, SmartNICConfig{})
	fpga := NewFPGA("fpga", s, FPGAConfig{})
	ft := flow(1)
	sn.Install(ft)
	_ = s.At(0, func() {
		for i := 0; i < 5; i++ {
			core.Submit(1000, nil)
			sn.Offload(ft, nil)
			fpga.Submit(nil)
		}
	})
	s.RunAll()
	if core.Served != 5 || core.QueueLen() != 0 {
		t.Errorf("core served %d, queue %d; want 5, 0", core.Served, core.QueueLen())
	}
	if sn.Offloaded != 5 || fpga.Served != 5 {
		t.Errorf("smartnic offloaded %d, fpga served %d; want 5 each", sn.Offloaded, fpga.Served)
	}
	if s.Processed() != 1+15 {
		t.Errorf("processed %d events, want 16 (one per packet plus the submitter)", s.Processed())
	}
}
