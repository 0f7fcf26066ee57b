// Package testbed assembles simulated heterogeneous deployments — hosts
// with CPU cores, optionally fronted by a SmartNIC, a programmable
// switch, or an FPGA — runs traffic through their network functions,
// and reports measured performance (throughput, latency, loss,
// fairness) together with composed cost (power, end-to-end per
// Principle 3).
//
// A Deployment is the simulated stand-in for one of the paper's example
// systems: "software firewall on N cores", "firewall with SmartNIC
// offload", "firewall behind a programmable switch". Its Run method
// produces the (performance, cost) points the core methodology
// compares.
package testbed

import (
	"errors"
	"fmt"
	"time"

	"fairbench/internal/cost"
	"fairbench/internal/hw"
	"fairbench/internal/measure"
	"fairbench/internal/nf"
	"fairbench/internal/obs"
	"fairbench/internal/packet"
	"fairbench/internal/perf"
	"fairbench/internal/sim"
	"fairbench/internal/workload"
)

// Config describes a deployment.
type Config struct {
	// Name labels the deployment in reports.
	Name string
	// Cores is the number of host dataplane cores (default 1).
	Cores int
	// CoreCfg configures each core.
	CoreCfg hw.CPUConfig
	// ChassisWatts is the host's fixed power overhead (default 15 W).
	ChassisWatts float64
	// ChassisRackUnits is the host's rack occupancy (default 1).
	ChassisRackUnits float64
	// NICWatts is the regular NIC's power (default 5 W). Ignored when
	// a SmartNIC is configured (the SmartNIC replaces it).
	NICWatts float64
	// NICRateBps is the NIC line rate (default 100 Gb/s).
	NICRateBps float64

	// SmartNIC, when non-nil, adds a flow-offload SmartNIC.
	SmartNIC *hw.SmartNICConfig
	// Switch, when non-nil, adds a programmable-switch preprocessor
	// running SwitchRules.
	Switch      *hw.SwitchConfig
	SwitchRules []nf.Rule
	// FPGA, when non-nil, runs the whole network function in an FPGA
	// pipeline. Packets the pipeline cannot take (ingress overflow, or
	// an injected outage) spill to the host cores when Cores > 0;
	// with Cores == 0 they are counted as loss in the measured window.
	FPGA *hw.FPGAConfig

	// NewNF builds a network-function instance for core i. Each core
	// gets its own instance (shared-nothing, as real dataplanes do).
	// Required unless FPGA is set, in which case a single functional
	// instance provides verdicts.
	NewNF func(core int) (nf.Func, error)

	// MutatesFrames must be set when the NF rewrites packets (NAT,
	// LB) so the harness hands it private frame copies.
	MutatesFrames bool

	// AblateStages names pipeline stages to disable for this
	// deployment — the saturation-delta profiler's stage toggles. An
	// ablated device stays in the bill of materials (its power is still
	// provisioned and drawn); only its dataplane function is switched
	// off, so a delta against the full pipeline isolates the *function's*
	// contribution. Recognized names: StageSmartNICFastPath (all traffic
	// takes the host slow path) and StageSwitchPredrop (the switch stops
	// preprocessing). NF-level operators are ablated by the scenario
	// constructors instead (see FirewallProfileTarget). Naming a stage
	// the configuration does not include is an error wrapping
	// ErrUnknownStage.
	AblateStages []string
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 && c.FPGA == nil {
		c.Cores = 1
	}
	if c.ChassisWatts == 0 {
		c.ChassisWatts = 15
	}
	if c.ChassisRackUnits == 0 {
		c.ChassisRackUnits = 1
	}
	if c.NICWatts == 0 {
		c.NICWatts = 5
	}
	if c.NICRateBps == 0 {
		c.NICRateBps = 100e9
	}
	return c
}

// Stage toggle names understood by Config.AblateStages and the
// firewall profile targets. The pipeline toggles disable a device's
// dataplane function while keeping the device provisioned; the NF-level
// toggles are interpreted by the scenario constructors, which rebuild
// the rule set.
const (
	// StageSmartNICFastPath disables the SmartNIC flow-offload fast
	// path: no lookups, no installs, every packet takes the host slow
	// path.
	StageSmartNICFastPath = "smartnic-fastpath"
	// StageSwitchPredrop disables the programmable switch's
	// preprocessing stage (as if the switch carried no rules).
	StageSwitchPredrop = "switch-predrop"
	// StageAttackRule removes the firewall's rule-0 early drop of
	// blocklisted traffic (NF-level; see FirewallProfileTarget).
	StageAttackRule = "fw-attack-rule"
	// StageFillerRules removes the firewall's filler rules, collapsing
	// the linear scan to its minimum depth (NF-level).
	StageFillerRules = "fw-filler-rules"
)

// ErrUnknownStage is the typed error for an ablation toggle the target
// pipeline does not have.
var ErrUnknownStage = errors.New("testbed: unknown ablatable stage")

// Deployment is an assembled system ready to run traffic.
type Deployment struct {
	cfg Config
	s   *sim.Sim

	// offSmartNIC and offSwitch record pipeline-stage ablations
	// (Config.AblateStages).
	offSmartNIC bool
	offSwitch   bool

	chassis  *hw.Chassis
	nic      *hw.NIC
	cores    []*hw.Core
	smartnic *hw.SmartNIC
	sw       *hw.Switch
	fpga     *hw.FPGA

	nfs     []nf.Func
	parsers []*packet.Parser

	// tr is the optional observability tracer; nil (the default) keeps
	// the hot path free of tracing work.
	tr          *obs.Tracer
	sampleEvery float64

	// led, lat and fair are the current run's meters (see begin).
	led  *measure.Ledger
	lat  *measure.LatencyMeter
	fair *measure.FairnessMeter

	// free recycles in-flight records (see acquire).
	free []*flight
}

// New assembles a deployment.
func New(cfg Config) (*Deployment, error) {
	cfg = cfg.withDefaults()
	if cfg.NewNF == nil {
		return nil, fmt.Errorf("testbed: %s: NewNF is required", cfg.Name)
	}
	if cfg.Cores < 0 {
		return nil, fmt.Errorf("testbed: %s: negative core count", cfg.Name)
	}
	if cfg.FPGA != nil && (cfg.SmartNIC != nil || cfg.Switch != nil) {
		return nil, fmt.Errorf("testbed: %s: FPGA deployments cannot also have SmartNIC/switch", cfg.Name)
	}
	d := &Deployment{cfg: cfg, s: sim.New()}
	d.chassis = hw.NewChassis(cfg.Name+"/chassis", cfg.ChassisWatts, cfg.ChassisRackUnits)

	nInstances := cfg.Cores
	if cfg.FPGA != nil && nInstances == 0 {
		nInstances = 1 // functional instance for verdicts
	}
	for i := 0; i < nInstances; i++ {
		f, err := cfg.NewNF(i)
		if err != nil {
			return nil, fmt.Errorf("testbed: %s: building NF for core %d: %w", cfg.Name, i, err)
		}
		d.nfs = append(d.nfs, f)
		d.parsers = append(d.parsers, packet.NewParser())
	}
	for i := 0; i < cfg.Cores; i++ {
		d.cores = append(d.cores, hw.NewCore(fmt.Sprintf("%s/core%d", cfg.Name, i), d.s, cfg.CoreCfg))
	}
	switch {
	case cfg.SmartNIC != nil:
		d.smartnic = hw.NewSmartNIC(cfg.Name+"/smartnic", d.s, *cfg.SmartNIC)
	default:
		d.nic = hw.NewNIC(cfg.Name+"/nic", cfg.NICRateBps, cfg.NICWatts)
	}
	if cfg.Switch != nil {
		d.sw = hw.NewSwitch(cfg.Name+"/switch", *cfg.Switch)
		d.sw.InstallRules(cfg.SwitchRules)
	}
	if cfg.FPGA != nil {
		d.fpga = hw.NewFPGA(cfg.Name+"/fpga", d.s, *cfg.FPGA)
	}
	for _, st := range cfg.AblateStages {
		switch st {
		case StageSmartNICFastPath:
			if d.smartnic == nil {
				return nil, fmt.Errorf("%w: %s: %q needs a SmartNIC", ErrUnknownStage, cfg.Name, st)
			}
			d.offSmartNIC = true
		case StageSwitchPredrop:
			if d.sw == nil {
				return nil, fmt.Errorf("%w: %s: %q needs a switch", ErrUnknownStage, cfg.Name, st)
			}
			d.offSwitch = true
		default:
			return nil, fmt.Errorf("%w: %s: %q", ErrUnknownStage, cfg.Name, st)
		}
	}
	return d, nil
}

// Name returns the deployment name.
func (d *Deployment) Name() string { return d.cfg.Name }

// Devices lists every powered component, in a stable order.
func (d *Deployment) Devices() []hw.Device {
	out := []hw.Device{d.chassis}
	if d.nic != nil {
		out = append(out, d.nic)
	}
	if d.smartnic != nil {
		out = append(out, d.smartnic)
	}
	for _, c := range d.cores {
		out = append(out, c)
	}
	if d.sw != nil {
		out = append(out, d.sw)
	}
	if d.fpga != nil {
		out = append(out, d.fpga)
	}
	return out
}

// Components returns the cost components for end-to-end composition.
func (d *Deployment) Components() []cost.Component {
	return hw.ComponentsOf(d.Devices()...)
}

// ProvisionedPowerWatts composes peak power across all devices.
func (d *Deployment) ProvisionedPowerWatts() (float64, error) {
	return hw.TotalPowerWatts(d.Devices()...)
}

// SmartNIC exposes the SmartNIC model (nil if absent) for tests.
func (d *Deployment) SmartNIC() *hw.SmartNIC { return d.smartnic }

// Switch exposes the switch model (nil if absent) for tests.
func (d *Deployment) Switch() *hw.Switch { return d.sw }

// FPGA exposes the FPGA model (nil if absent) for tests.
func (d *Deployment) FPGA() *hw.FPGA { return d.fpga }

// kernelTraceEvery throttles kernel progress events: one record per
// this many executed simulation events keeps traces compact while still
// showing virtual-clock progress and queue depth.
const kernelTraceEvery = 256

// Observe attaches an observability tracer to the deployment. Call it
// before Run/RunTrace. The trace records per-packet lifecycle spans
// with a per-stage latency breakdown and kernel progress; when
// sampleEvery > 0, a deterministic periodic sampler additionally
// records per-device utilization, queue depth and instantaneous power
// every sampleEvery seconds of virtual time. A nil tracer (the
// default) leaves the hot path untouched.
func (d *Deployment) Observe(tr *obs.Tracer, sampleEvery float64) {
	d.tr = tr
	d.sampleEvery = sampleEvery
}

// Tracer returns the attached tracer (nil when untraced).
func (d *Deployment) Tracer() *obs.Tracer { return d.tr }

// armObs installs the kernel hook and sampler for a traced run.
func (d *Deployment) armObs(horizon sim.Time) {
	if d.tr == nil {
		return
	}
	d.tr.Emit(obs.Event{T: d.s.Now().Seconds(), Kind: "run", Device: d.cfg.Name})
	d.s.SetTrace(obs.KernelHook(d.tr), kernelTraceEvery)
	if d.sampleEvery > 0 {
		// Scheduling the first tick can only fail for an invalid
		// period, which the Sampler reports; surface it as a trace
		// error rather than failing the measurement.
		sampler := obs.NewSampler(d.tr, d.sampleEvery, d.obsSources()...)
		_ = sampler.Arm(d.s, horizon.Seconds())
	}
}

// finishObs closes out a traced run.
func (d *Deployment) finishObs(end sim.Time) {
	if d.tr == nil {
		return
	}
	d.tr.Emit(obs.Event{T: end.Seconds(), Kind: "run-end", Events: d.s.Processed()})
}

// obsSources builds the sampler probes in the same stable order as
// Devices().
func (d *Deployment) obsSources() []obs.Source {
	out := []obs.Source{{
		Name: d.chassis.Name(), IdleWatts: d.chassis.Watts, ActiveWatts: d.chassis.Watts,
	}}
	if d.nic != nil {
		out = append(out, obs.Source{Name: d.nic.Name(), IdleWatts: d.nic.Watts, ActiveWatts: d.nic.Watts})
	}
	if d.smartnic != nil {
		cfg := d.smartnic.Config()
		out = append(out, obs.Source{
			Name: d.smartnic.Name(), Busy: d.smartnic.BusySeconds, Queue: d.smartnic.BacklogPackets,
			IdleWatts: cfg.IdleWatts, ActiveWatts: cfg.ActiveWatts,
		})
	}
	for _, c := range d.cores {
		cfg := c.Config()
		out = append(out, obs.Source{
			Name: c.Name(), Busy: c.BusySeconds, Queue: c.QueueLen,
			IdleWatts: cfg.IdleWatts, ActiveWatts: cfg.ActiveWatts,
		})
	}
	if d.sw != nil {
		w := d.sw.Config().Watts
		out = append(out, obs.Source{Name: d.sw.Name(), IdleWatts: w, ActiveWatts: w})
	}
	if d.fpga != nil {
		cfg := d.fpga.Config()
		out = append(out, obs.Source{
			Name: d.fpga.Name(), Busy: d.fpga.BusySeconds, Queue: d.fpga.BacklogPackets,
			IdleWatts: cfg.IdleWatts, ActiveWatts: cfg.ActiveWatts,
		})
	}
	return out
}

// startSpan opens a packet lifecycle span (nil when untraced).
func (d *Deployment) startSpan() *obs.Span {
	return d.tr.StartSpan(d.s.Now().Seconds())
}

// spanSojourn attributes a device sojourn to the span's standard
// stages: queueing, service, and fixed I/O latency.
func spanSojourn(sp *obs.Span, so hw.Sojourn) {
	sp.Stage("queue", so.WaitSeconds)
	sp.Stage("service", so.ServiceSeconds)
	sp.Stage("io", so.FixedSeconds)
}

// Result is the measured outcome of a Run.
type Result struct {
	Name     string
	Duration time.Duration

	Offered, Processed, Forwarded perf.Throughput
	LossFraction                  float64

	LatencyMeanUs, LatencyP50Us, LatencyP99Us float64
	JFI                                       float64

	// AvgPowerWatts integrates each device's energy over the run.
	AvgPowerWatts float64
	// ProvisionedPowerWatts is the peak-power cost figure (the number
	// the paper's examples report).
	ProvisionedPowerWatts float64
	// PerDeviceAvgWatts itemises average power.
	PerDeviceAvgWatts map[string]float64
}

// Run offers traffic at offeredPps for the given simulated duration and
// returns the measurement. Each call uses a fresh simulation clock; a
// Deployment should be Run once (build a new one per experiment point).
func (d *Deployment) Run(gen *workload.Generator, arrival workload.Arrival, offeredPps, durationSeconds float64) (Result, error) {
	if offeredPps <= 0 || durationSeconds <= 0 {
		return Result{}, fmt.Errorf("testbed: invalid run params pps=%v duration=%v", offeredPps, durationSeconds)
	}
	return d.runInjected(arrival, offeredPps, durationSeconds, gen.ArrivalRNG(), func() error {
		var pk workload.Pkt
		var err error
		if d.cfg.MutatesFrames {
			pk, err = gen.NextCopy()
		} else {
			pk, err = gen.Next()
		}
		if err != nil {
			return err
		}
		d.admit(pk, false)
		return nil
	}, nil)
}

// injector produces and offers one packet per arrival event.
type injector func() error

// runHooks customises runInjected for faulted runs.
type runHooks struct {
	// prep runs after the run's meters are built and observability is
	// armed, and before arrivals are scheduled — where the fault
	// injector arms its event schedule.
	prep func(horizon sim.Time) error
	// rateFactor scales the offered rate at each arrival (burst
	// overload); nil means a constant factor of 1.
	rateFactor func() float64
}

// availWindows is how many availability windows a run's horizon is
// divided into. Fault windows in the scenario catalogue span ~10% of a
// run, so 40 windows resolve onset, depth and recovery without
// drowning short runs in empty windows.
const availWindows = 40

// begin builds the run's meters and arms observability.
func (d *Deployment) begin(horizon sim.Time) error {
	led, err := measure.NewLedger(horizon.Seconds() / availWindows)
	if err != nil {
		return err
	}
	d.led, d.lat, d.fair = led, measure.NewLatencyMeter(), measure.NewFairnessMeter()
	d.armObs(horizon)
	return nil
}

// runInjected drives the arrival process, calling inject per arrival,
// then drains and collects the measurement. hooks may be nil.
func (d *Deployment) runInjected(arrival workload.Arrival, offeredPps, durationSeconds float64, arrRng *sim.RNG, inject injector, hooks *runHooks) (Result, error) {
	horizon := sim.Time(durationSeconds)
	if err := d.begin(horizon); err != nil {
		return Result{}, err
	}
	if hooks != nil && hooks.prep != nil {
		if err := hooks.prep(horizon); err != nil {
			return Result{}, err
		}
	}
	a := &arrivals{d: d, arrival: arrival, rng: arrRng, pps: offeredPps, horizon: horizon, inject: inject}
	if hooks != nil {
		a.factor = hooks.rateFactor
	}
	a.schedule(sim.Time(arrival.NextGap(arrRng, a.rate())))

	// Run past the horizon so in-flight packets drain (bounded by the
	// largest plausible queueing delay).
	d.s.Run(horizon + 1)
	if a.err != nil {
		return Result{}, a.err
	}
	return d.collect(horizon)
}

// arrivals is a run's arrival process: one handler that injects a
// packet and reschedules itself one interarrival gap later, until the
// horizon.
type arrivals struct {
	d       *Deployment
	arrival workload.Arrival
	rng     *sim.RNG
	pps     float64
	factor  func() float64 // rate scale (runHooks.rateFactor); nil means 1
	horizon sim.Time
	inject  injector

	at  sim.Time // time of the pending arrival
	err error    // first injection or scheduling error
}

// rate returns the offered rate at the current arrival.
func (a *arrivals) rate() float64 {
	if a.factor == nil {
		return a.pps
	}
	return a.pps * a.factor()
}

// schedule arms the next arrival at at, unless it lies past the horizon.
func (a *arrivals) schedule(at sim.Time) {
	if at > a.horizon {
		return
	}
	a.at = at
	if err := a.d.s.Schedule(at, a); err != nil && a.err == nil {
		a.err = err
	}
}

// Fire implements sim.Handler: inject one packet, then schedule the
// next arrival. An injection error halts the run.
//
//fairbench:hotpath per-packet arrival
func (a *arrivals) Fire() {
	if err := a.inject(); err != nil && a.err == nil {
		a.err = err
		a.d.s.Halt()
		return
	}
	a.schedule(a.at + sim.Time(a.arrival.NextGap(a.rng, a.rate())))
}

// inFlight counts the packets still queued in a device.
func (d *Deployment) inFlight() uint64 {
	n := 0
	for _, c := range d.cores {
		n += c.QueueLen()
	}
	if d.smartnic != nil {
		n += d.smartnic.BacklogPackets()
	}
	if d.fpga != nil {
		n += d.fpga.BacklogPackets()
	}
	return uint64(n)
}

// collect checks the run ledger's conservation and assembles the
// Result from the meters and device energy.
func (d *Deployment) collect(end sim.Time) (Result, error) {
	if end <= 0 {
		// Run/RunTrace validate durations, so this is defensive: a
		// zero-length window must not divide energy by zero below.
		return Result{}, fmt.Errorf("testbed: %s: empty measurement window", d.cfg.Name)
	}
	if err := d.led.Balance(d.inFlight()); err != nil {
		return Result{}, fmt.Errorf("testbed: %s: %w", d.cfg.Name, err)
	}
	d.finishObs(end)
	t, el := &d.led.Total, end.Duration()
	res := Result{
		Name:          d.cfg.Name,
		Duration:      el,
		Offered:       t.Offered(el),
		Processed:     t.Processed(el),
		Forwarded:     t.Forwarded(el),
		LossFraction:  t.LossFraction(),
		LatencyMeanUs: d.lat.Summary().Mean / 1e3,
		LatencyP50Us:  d.lat.P50Micros(),
		LatencyP99Us:  d.lat.P99Micros(),
		JFI:           d.fair.JFI(),
	}
	var energy float64
	res.PerDeviceAvgWatts = make(map[string]float64)
	for _, dev := range d.Devices() {
		e := dev.EnergyJoules(end)
		energy += e
		res.PerDeviceAvgWatts[dev.Name()] = e / end.Seconds()
	}
	res.AvgPowerWatts = energy / end.Seconds()
	var err error
	res.ProvisionedPowerWatts, err = d.ProvisionedPowerWatts()
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// admit offers one packet to the run ledger at the current simulated
// time, then dispatches it — or, when the ingress link dropped it,
// settles it as lost before any device sees it.
//
//fairbench:hotpath per-packet admission
func (d *Deployment) admit(pk workload.Pkt, linkDropped bool) {
	t := d.led.Offer(string(pk.Class), d.s.Now().Seconds(), len(pk.Frame))
	if linkDropped {
		d.led.Resolve(t, measure.Lost)
		return
	}
	d.dispatch(pk, t)
}

// resolve settles a packet in the run ledger and closes its span on
// device dev with the outcome as verdict.
func (d *Deployment) resolve(t measure.Ticket, o measure.Outcome, sp *obs.Span, dev string) {
	d.led.Resolve(t, o)
	sp.End(dev, o.String())
}

// outcome maps an NF verdict to the packet's ledger outcome.
func outcome(v nf.Verdict) measure.Outcome {
	if v == nf.Drop {
		return measure.Dropped
	}
	return measure.Forwarded
}

// dispatch pushes one admitted packet through the deployment's path.
// When a tracer is attached, every packet gets a lifecycle span whose
// stage durations sum to the latency the meters record. Offload devices
// degrade gracefully: a downed switch fails open (the host firewall
// still holds the full rule set), and FPGA overflow or outage spills to
// the host cores when there are any — traffic is only lost when no
// component can take it.
//
//fairbench:hotpath per-packet dispatch
func (d *Deployment) dispatch(pk workload.Pkt, t measure.Ticket) {
	flow := pk.Flow
	extraLatency := 0.0
	sp := d.startSpan()

	// Stage 1: programmable switch preprocessing at line rate. A downed
	// switch is bypassed (fail-open), leaving all classification to the
	// host.
	if d.sw != nil && !d.offSwitch && !d.sw.Down() {
		verdict, swLat := d.sw.Process(flow)
		sp.Stage("switch", swLat)
		if verdict == nf.Drop {
			// Pre-dropped in-network: processed work, not forwarded.
			_ = d.lat.RecordSeconds(swLat)
			d.resolve(t, measure.Dropped, sp, d.sw.Name())
			return
		}
		extraLatency += swLat
	}

	// Stage 2: FPGA full offload; overflow, flow-table punts and outage
	// fail over to the host slow path when cores exist.
	if d.fpga != nil {
		f := d.acquire(t, outcome(d.functionalVerdict(pk)), flow, extraLatency, sp, d.fpga.Name())
		if !d.fpga.SubmitFlow(flow, f) {
			d.release(f)
			if len(d.cores) > 0 {
				d.hostPath(pk, t, extraLatency, sp)
				return
			}
			d.resolve(t, measure.Lost, sp, d.fpga.Name())
		}
		return
	}

	// Stage 3: SmartNIC fast path for established flows. Saturation,
	// table misses and outages all punt to the host slow path.
	if d.smartnic != nil && !d.offSmartNIC {
		f := d.acquire(t, measure.Forwarded, flow, extraLatency, sp, d.smartnic.Name())
		if d.smartnic.Offload(flow, f) {
			return
		}
		d.release(f)
	}

	// Stage 4: host slow path.
	d.hostPath(pk, t, extraLatency, sp)
}

// hostPath runs the NF on the packet's RSS core. Callers ensure the
// deployment has cores.
//
//fairbench:hotpath per-packet host slow path
func (d *Deployment) hostPath(pk workload.Pkt, t measure.Ticket, extraLatency float64, sp *obs.Span) {
	coreID := hw.RSS(pk.Flow, len(d.cores))
	core := d.cores[coreID]
	parser := d.parsers[coreID]
	var res nf.Result
	err := parser.Parse(pk.Frame)
	if err == nil {
		res, err = d.nfs[coreID].Process(parser, pk.Frame)
	}
	if err != nil {
		d.resolve(t, measure.Lost, sp, core.Name())
		return
	}
	f := d.acquire(t, outcome(res.Verdict), pk.Flow, extraLatency, sp, core.Name())
	// Install the offload entry once the host has vetted the flow.
	f.install = d.smartnic != nil && !d.offSmartNIC && f.o == measure.Forwarded
	if !core.Submit(res.Cycles, f) {
		d.release(f)
		d.resolve(t, measure.Lost, sp, core.Name())
	}
}

// flight is one packet in a device: everything its completion needs,
// held in a record the deployment recycles instead of a closure
// allocated per packet.
type flight struct {
	d     *Deployment
	t     measure.Ticket
	o     measure.Outcome
	flow  packet.FiveTuple
	extra float64 // latency accrued before the device (switch stage)
	sp    *obs.Span
	dev   string
	// install adds the flow to the SmartNIC's offload table on
	// completion (a host-vetted, forwarded packet).
	install bool
}

// acquire takes an in-flight record from the pool and fills it.
//
//fairbench:hotpath per-packet in-flight record
func (d *Deployment) acquire(t measure.Ticket, o measure.Outcome, flow packet.FiveTuple, extra float64, sp *obs.Span, dev string) *flight {
	var f *flight
	if n := len(d.free); n > 0 {
		f = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		//fairlint:allow hotalloc the pool grows to the deepest in-flight population (bounded by device queues), then recycles records for the whole run
		f = new(flight)
	}
	*f = flight{d: d, t: t, o: o, flow: flow, extra: extra, sp: sp, dev: dev}
	return f
}

// release returns an in-flight record to the pool.
//
//fairbench:hotpath per-packet in-flight record
func (d *Deployment) release(f *flight) {
	//fairlint:allow hotalloc the free list holds at most the records the pool ever made; it grows only with the pool
	d.free = append(d.free, f)
}

// Complete implements hw.Completer: it settles the packet when its
// device finishes it, then recycles the record.
//
//fairbench:hotpath per-packet completion
func (f *flight) Complete(so hw.Sojourn) {
	d := f.d
	if f.o == measure.Forwarded {
		d.fair.Record(f.flow, f.t.Bytes())
	}
	_ = d.lat.RecordSeconds(so.Total() + f.extra)
	spanSojourn(f.sp, so)
	d.resolve(f.t, f.o, f.sp, f.dev)
	if f.install {
		d.smartnic.Install(f.flow)
	}
	d.release(f)
}

// functionalVerdict evaluates the NF logic for the FPGA path (the
// pipeline implements the same function in hardware; we reuse the Go
// implementation for the decision while the FPGA model provides
// timing).
func (d *Deployment) functionalVerdict(pk workload.Pkt) nf.Verdict {
	parser := d.parsers[0]
	if err := parser.Parse(pk.Frame); err != nil {
		return nf.Drop
	}
	res, err := d.nfs[0].Process(parser, pk.Frame)
	if err != nil {
		return nf.Drop
	}
	return res.Verdict
}
