package hw

import (
	"testing"

	"fairbench/internal/packet"
	"fairbench/internal/sim"
)

func TestFaultStateDerateClamps(t *testing.T) {
	var f FaultState
	if got := f.DerateFactor(); got != 1 {
		t.Errorf("zero-value derate = %v, want 1", got)
	}
	f.SetDerate(0.5)
	if got := f.DerateFactor(); got != 0.5 {
		t.Errorf("derate = %v, want 0.5", got)
	}
	for _, bad := range []float64{0, -1, 1.5} {
		f.SetDerate(bad)
		if got := f.DerateFactor(); got != 1 {
			t.Errorf("SetDerate(%v) → factor %v, want clamped to 1", bad, got)
		}
	}
}

func TestCoreOutageDropsWork(t *testing.T) {
	s := sim.New()
	c := NewCore("c0", s, CPUConfig{})
	c.SetDown(true)
	if c.Submit(1000, nil) {
		t.Fatal("downed core accepted work")
	}
	if c.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", c.Dropped)
	}
	c.SetDown(false)
	if !c.Submit(1000, nil) {
		t.Fatal("recovered core rejected work")
	}
}

func TestCoreBrownoutStretchesService(t *testing.T) {
	measure := func(derate float64) float64 {
		s := sim.New()
		c := NewCore("c0", s, CPUConfig{})
		c.SetDerate(derate)
		var total float64
		c.Submit(30000, completeFunc(func(so Sojourn) { total = so.ServiceSeconds }))
		s.Run(1)
		return total
	}
	healthy, browned := measure(1), measure(0.5)
	if browned <= healthy {
		t.Errorf("browned-out service %v not slower than healthy %v", browned, healthy)
	}
	if got, want := browned/healthy, 2.0; got < want*0.99 || got > want*1.01 {
		t.Errorf("0.5 derating stretched service by %vx, want %vx", got, want)
	}
}

func TestSmartNICOutage(t *testing.T) {
	s := sim.New()
	sn := NewSmartNIC("sn", s, SmartNICConfig{})
	ft := packet.FiveTuple{Proto: packet.ProtoTCP, SrcPort: 1, DstPort: 2}
	if !sn.Install(ft) {
		t.Fatal("install on healthy SmartNIC failed")
	}
	if !sn.Offload(ft, nil) {
		t.Fatal("offload of installed flow failed")
	}
	sn.SetDown(true)
	if sn.Offload(ft, nil) {
		t.Fatal("downed SmartNIC served the fast path")
	}
	if sn.Install(ft) {
		t.Fatal("downed SmartNIC accepted a table install")
	}
	// A firmware crash loses the flow table: after recovery the flow
	// must be re-vetted by the host before the fast path serves it.
	sn.ResetTable()
	sn.SetDown(false)
	if sn.Offload(ft, nil) {
		t.Fatal("offload table survived ResetTable")
	}
	if !sn.Install(ft) {
		t.Fatal("recovered SmartNIC rejected a table install")
	}
	if !sn.Offload(ft, nil) {
		t.Fatal("re-installed flow not served")
	}
}

func TestFPGAOutageCountsUnavailable(t *testing.T) {
	s := sim.New()
	f := NewFPGA("f0", s, FPGAConfig{})
	f.SetDown(true)
	if f.Submit(nil) {
		t.Fatal("downed FPGA accepted a packet")
	}
	if f.Unavailable != 1 || f.Served != 0 {
		t.Errorf("Unavailable=%d Served=%d, want 1/0", f.Unavailable, f.Served)
	}
	f.SetDown(false)
	if !f.Submit(nil) {
		t.Fatal("recovered FPGA rejected a packet")
	}
	if f.Served != 1 {
		t.Errorf("Served = %d, want 1", f.Served)
	}
}

func TestSwitchBrownoutStretchesLatency(t *testing.T) {
	sw := NewSwitch("sw", SwitchConfig{})
	_, healthy := sw.Process(packet.FiveTuple{})
	sw.SetDerate(0.25)
	_, browned := sw.Process(packet.FiveTuple{})
	if got, want := browned/healthy, 4.0; got < want*0.99 || got > want*1.01 {
		t.Errorf("0.25 derating stretched switch latency by %vx, want %vx", got, want)
	}
}
