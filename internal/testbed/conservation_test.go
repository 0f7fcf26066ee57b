package testbed

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"fairbench/internal/hw"
	"fairbench/internal/measure"
	"fairbench/internal/workload"
)

const (
	conservePps     = 2e6
	conserveSeconds = 0.005
)

// conserveRun is one entry point's outcome: the Result plus, where the
// entry point reports them, its availability and state-pressure views.
type conserveRun struct {
	res   Result
	avail *measure.AvailSummary
	state *measure.StateMeter
}

// TestConservation drives every topology through every entry point and
// checks the run ledger exactly: the outcomes sum to the offered load,
// the per-class rows and the availability windows each sum to the total
// row, and the Result, AvailSummary and StateSummary views agree with
// it. Between them the cases reach every exit of the dispatch path, so
// a packet that is offered but never resolved fails the run's own
// conservation check.
func TestConservation(t *testing.T) {
	topologies := []struct {
		name, dev string
		build     func() (*Deployment, error)
	}{
		{"host", "cores", func() (*Deployment, error) { return BaselineFirewall(1) }},
		{"smartnic", "smartnic", SmartNICFirewall},
		{"switch+host", "switch", func() (*Deployment, error) { return SwitchFirewall(1) }},
		{"fpga", "fpga", func() (*Deployment, error) { return FPGAFirewall(hw.FPGAConfig{CapacityPps: 1e6}) }},
		{"fpga+host", "fpga", func() (*Deployment, error) {
			return New(Config{
				Name:         "fw-fpga-host",
				Cores:        1,
				CoreCfg:      ScenarioCore,
				ChassisWatts: ScenarioChassisWatts,
				NICWatts:     ScenarioNICWatts,
				FPGA:         &hw.FPGAConfig{CapacityPps: 1e6},
				NewNF:        firewallFactory(FirewallRules(DefaultFillerRules)),
			})
		}},
	}
	type entry struct {
		name string
		run  func(t *testing.T, d *Deployment, dev string) (conserveRun, error)
	}
	faulted := func(spec string) func(*testing.T, *Deployment, string) (conserveRun, error) {
		return func(t *testing.T, d *Deployment, dev string) (conserveRun, error) {
			res, rep, err := d.RunWithFaults(e6gen(t), workload.Poisson{}, conservePps, conserveSeconds,
				mustFaultSpec(t, spec+dev+",at=1ms,for=2ms"))
			return conserveRun{res: res, avail: &rep.Avail}, err
		}
	}
	entries := []entry{
		{"Run", func(t *testing.T, d *Deployment, _ string) (conserveRun, error) {
			res, err := d.Run(e6gen(t), workload.Poisson{}, conservePps, conserveSeconds)
			return conserveRun{res: res}, err
		}},
		{"RunWithFaults/outage", faulted("outage:dev=")},
		{"RunWithFaults/brownout", faulted("brownout:factor=0.3,dev=")},
		{"RunWithFaults/linkloss", func(t *testing.T, d *Deployment, _ string) (conserveRun, error) {
			res, rep, err := d.RunWithFaults(e6gen(t), workload.Poisson{}, conservePps, conserveSeconds,
				mustFaultSpec(t, "linkloss:prob=0.1"))
			return conserveRun{res: res, avail: &rep.Avail}, err
		}},
		{"RunWithFaults/linkcorrupt", func(t *testing.T, d *Deployment, _ string) (conserveRun, error) {
			res, rep, err := d.RunWithFaults(e6gen(t), workload.Poisson{}, conservePps, conserveSeconds,
				mustFaultSpec(t, "linkcorrupt:prob=0.1"))
			return conserveRun{res: res, avail: &rep.Avail}, err
		}},
		{"RunWithFaults/burst", func(t *testing.T, d *Deployment, _ string) (conserveRun, error) {
			res, rep, err := d.RunWithFaults(e6gen(t), workload.Poisson{}, conservePps, conserveSeconds,
				mustFaultSpec(t, "burst:factor=3,at=1ms,for=2ms"))
			return conserveRun{res: res, avail: &rep.Avail}, err
		}},
		{"RunWithImpairments", func(t *testing.T, d *Deployment, _ string) (conserveRun, error) {
			res, _, err := d.RunWithImpairments(e6gen(t), workload.Poisson{}, conservePps, conserveSeconds,
				Impairments{DropProb: 0.05, CorruptProb: 0.05, DupProb: 0.3})
			return conserveRun{res: res}, err
		}},
		{"RunScenario", func(t *testing.T, d *Deployment, _ string) (conserveRun, error) {
			sc, err := workload.ParseScenario("zipf:flows=4096,skew=1.1,tcp=0.3;synflood:rate=0.3;amplify:rate=0.1")
			if err != nil {
				t.Fatal(err)
			}
			sg, err := workload.NewScenarioGen(sc)
			if err != nil {
				t.Fatal(err)
			}
			sm := measure.NewStateMeter()
			res, err := d.RunScenario(sg, workload.Poisson{}, conservePps, conserveSeconds, sm)
			return conserveRun{res: res, state: sm}, err
		}},
		{"RunTraceWithFaults", func(t *testing.T, d *Deployment, dev string) (conserveRun, error) {
			var buf bytes.Buffer
			if err := workload.Record(&buf, e6gen(t), workload.Poisson{}, conservePps, 10000); err != nil {
				t.Fatal(err)
			}
			tr, err := workload.NewTraceReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			res, rep, err := d.RunTraceWithFaults(tr, 1,
				mustFaultSpec(t, "outage:dev="+dev+",at=1ms,for=2ms;linkloss:prob=0.05;linkcorrupt:prob=0.05"))
			return conserveRun{res: res, avail: &rep.Avail}, err
		}},
	}
	for _, topo := range topologies {
		for _, e := range entries {
			t.Run(topo.name+"/"+e.name, func(t *testing.T) {
				d, err := topo.build()
				if err != nil {
					t.Fatal(err)
				}
				run, err := e.run(t, d, topo.dev)
				if err != nil {
					t.Fatal(err)
				}
				checkLedger(t, d, run)
			})
		}
	}
}

func addRow(sum *measure.Row, r measure.Row) {
	sum.OfferedPackets += r.OfferedPackets
	sum.OfferedBits += r.OfferedBits
	sum.ProcessedPackets += r.ProcessedPackets
	sum.ProcessedBits += r.ProcessedBits
	sum.ForwardedPackets += r.ForwardedPackets
	sum.ForwardedBits += r.ForwardedBits
	sum.LostPackets += r.LostPackets
}

// checkLedger asserts exact conservation on a finished run's ledger
// and that every view of it agrees.
func checkLedger(t *testing.T, d *Deployment, run conserveRun) {
	t.Helper()
	tot := d.led.Total
	if tot.OfferedPackets == 0 {
		t.Fatal("no packets offered")
	}
	if got := tot.ProcessedPackets + tot.LostPackets + d.inFlight(); got != tot.OfferedPackets {
		t.Errorf("offered %d != processed %d + lost %d + in flight %d",
			tot.OfferedPackets, tot.ProcessedPackets, tot.LostPackets, d.inFlight())
	}

	var classes, windows measure.Row
	for _, c := range d.led.Classes {
		addRow(&classes, c.Row)
	}
	for _, w := range d.led.Windows {
		addRow(&windows, w)
	}
	if classes != tot {
		t.Errorf("class rows sum to %+v, total row %+v", classes, tot)
	}
	if windows != tot {
		t.Errorf("window rows sum to %+v, total row %+v", windows, tot)
	}

	res := run.res
	if res.Offered.Packets != tot.OfferedPackets || res.Offered.Bits != tot.OfferedBits ||
		res.Processed.Packets != tot.ProcessedPackets || res.Processed.Bits != tot.ProcessedBits ||
		res.Forwarded.Packets != tot.ForwardedPackets || res.Forwarded.Bits != tot.ForwardedBits ||
		res.LossFraction != tot.LossFraction() {
		t.Errorf("Result %+v disagrees with total row %+v", res, tot)
	}

	av, err := d.led.Avail(measure.DefaultAvailabilityThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if run.avail != nil && !reflect.DeepEqual(*run.avail, av) {
		t.Errorf("FaultReport.Avail %+v differs from the ledger's %+v", *run.avail, av)
	}
	var offered, resolved uint64
	for _, w := range av.Windows {
		offered += w.Offered
		resolved += w.Resolved
	}
	if offered != res.Offered.Packets || resolved != res.Processed.Packets {
		t.Errorf("availability windows offered/resolved %d/%d, Result %d/%d",
			offered, resolved, res.Offered.Packets, res.Processed.Packets)
	}

	sm := run.state
	if sm == nil {
		sm = measure.NewStateMeter()
		sm.Track(d.led)
	}
	st, err := sm.Summarize(res.Duration.Seconds())
	if err != nil {
		t.Fatal(err)
	}
	var cs measure.StateClassSummary
	for _, c := range st.Classes {
		cs.Offered += c.Offered
		cs.Delivered += c.Delivered
		cs.Dropped += c.Dropped
		cs.Lost += c.Lost
		cs.OfferedBytes += c.OfferedBytes
		cs.DeliveredBytes += c.DeliveredBytes
	}
	if cs.Offered != res.Offered.Packets || cs.Delivered != res.Forwarded.Packets ||
		cs.Delivered+cs.Dropped != res.Processed.Packets || cs.Lost != tot.LostPackets ||
		cs.OfferedBytes*8 != res.Offered.Bits || cs.DeliveredBytes*8 != res.Forwarded.Bits {
		t.Errorf("StateSummary classes sum to %+v, Result %+v", cs, res)
	}
}

// TestRunReportsUnbalancedLedger: a run whose ledger does not balance
// returns an error wrapping measure.ErrUnbalanced instead of a Result.
func TestRunReportsUnbalancedLedger(t *testing.T) {
	d, err := BaselineFirewall(1)
	if err != nil {
		t.Fatal(err)
	}
	gen := e6gen(t)
	stray := false
	_, err = d.runInjected(workload.CBR{}, 1e6, 0.001, gen.ArrivalRNG(), func() error {
		pk, err := gen.Next()
		if err != nil {
			return err
		}
		if !stray {
			stray = true
			d.led.Offer(string(pk.Class), d.s.Now().Seconds(), len(pk.Frame)) // never resolved
		}
		d.admit(pk, false)
		return nil
	}, nil)
	if !errors.Is(err, measure.ErrUnbalanced) {
		t.Fatalf("err = %v, want ErrUnbalanced", err)
	}
}
