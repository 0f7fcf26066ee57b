package hw

import (
	"fairbench/internal/cost"
	"fairbench/internal/metric"
	"fairbench/internal/nf"
	"fairbench/internal/packet"
	"fairbench/internal/sim"
)

// SwitchConfig parameterises a programmable-switch model.
type SwitchConfig struct {
	// PortRateBps is the per-port line rate (default 100 Gb/s).
	PortRateBps float64
	// Watts is the switch's (approximately constant) power draw
	// (default 100 W for the slice of a chassis one experiment uses).
	Watts float64
	// StageLatencySeconds is the per-pipeline-stage latency (default
	// 100 ns).
	StageLatencySeconds float64
	// Stages is the number of match-action stages traversed (default 4).
	Stages int
	// TableCapacity bounds the number of installable prefix rules
	// (switch SRAM/TCAM is small — default 4096).
	TableCapacity int
	// RackUnits is the space attributed to this deployment (default 1).
	RackUnits float64
}

func (c SwitchConfig) withDefaults() SwitchConfig {
	if c.PortRateBps == 0 {
		c.PortRateBps = 100e9
	}
	if c.Watts == 0 {
		c.Watts = 100
	}
	if c.StageLatencySeconds == 0 {
		c.StageLatencySeconds = 100e-9
	}
	if c.Stages == 0 {
		c.Stages = 4
	}
	if c.TableCapacity == 0 {
		c.TableCapacity = 4096
	}
	if c.RackUnits == 0 {
		c.RackUnits = 1
	}
	return c
}

// Switch models a programmable switch used as a firewall preprocessor
// (the §4.2.1 example): it applies drop rules in its match-action
// pipeline at line rate, so the host only sees traffic that survives.
// Switch power is nearly load-independent, which the model reflects.
type Switch struct {
	FaultState

	name  string
	cfg   SwitchConfig
	rules []nf.Rule
	// PreDropped and Passed count pipeline outcomes.
	PreDropped, Passed uint64
}

// NewSwitch builds a switch preprocessor.
func NewSwitch(name string, cfg SwitchConfig) *Switch {
	return &Switch{name: name, cfg: cfg.withDefaults()}
}

// Name implements Device.
func (sw *Switch) Name() string { return sw.name }

// Config returns the effective configuration.
func (sw *Switch) Config() SwitchConfig { return sw.cfg }

// InstallRules loads drop rules into the pipeline, bounded by table
// capacity; surplus rules are rejected (they must stay on the host).
// It returns the number of rules actually installed.
func (sw *Switch) InstallRules(rules []nf.Rule) int {
	n := len(rules)
	if n > sw.cfg.TableCapacity {
		n = sw.cfg.TableCapacity
	}
	sw.rules = append([]nf.Rule(nil), rules[:n]...)
	return n
}

// Process classifies a packet at line rate. It returns Drop when a
// pipeline rule discards the packet, and the pipeline latency. A
// derated (browned-out) pipeline stretches the stage latency by the
// derating factor; a downed switch never sees packets (the deployment
// fails open around it).
func (sw *Switch) Process(ft packet.FiveTuple) (verdict nf.Verdict, latencySeconds float64) {
	latencySeconds = float64(sw.cfg.Stages) * sw.cfg.StageLatencySeconds * sw.slowdown()
	for _, r := range sw.rules {
		if r.Matches(ft) {
			if r.Action == nf.Drop {
				sw.PreDropped++
				return nf.Drop, latencySeconds
			}
			break
		}
	}
	sw.Passed++
	return nf.Accept, latencySeconds
}

// EnergyJoules implements Device (constant draw).
func (sw *Switch) EnergyJoules(end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	return sw.cfg.Watts * end.Seconds()
}

// MaxPowerWatts implements Device.
func (sw *Switch) MaxPowerWatts() float64 { return sw.cfg.Watts }

// CostVector implements Device.
func (sw *Switch) CostVector() cost.Vector {
	return cost.Vector{
		metric.MetricPower:     metric.Q(sw.cfg.Watts, metric.Watt),
		metric.MetricRackSpace: metric.Q(sw.cfg.RackUnits, metric.RackUnit),
	}
}

// FPGAConfig parameterises an FPGA accelerator model.
type FPGAConfig struct {
	// CapacityPps is the pipeline's packet rate (default 50 Mpps).
	CapacityPps float64
	// PipelineLatencySeconds is the fixed processing latency (default
	// 1 µs).
	PipelineLatencySeconds float64
	// IdleWatts and ActiveWatts bound board power (defaults 20 W, 45 W).
	IdleWatts, ActiveWatts float64
	// LUTsUsed and LUTsTotal describe resource consumption (defaults
	// 180k of 1.2M).
	LUTsUsed, LUTsTotal float64
	// FlowTableSize, when positive, bounds the on-chip flow table the
	// pipeline learns flows into (BRAM is scarce). Packets of unknown
	// flows that find the table full are punted to the host slow path
	// via SubmitFlow — overflow degrades throughput, it does not drop.
	// Zero keeps the historical flow-agnostic pipeline.
	FlowTableSize int
	// TableEvict selects the full-table policy; EvictSeed drives
	// EvictRandom.
	TableEvict nf.EvictPolicy
	EvictSeed  uint64
}

func (c FPGAConfig) withDefaults() FPGAConfig {
	if c.CapacityPps == 0 {
		c.CapacityPps = 50e6
	}
	if c.PipelineLatencySeconds == 0 {
		c.PipelineLatencySeconds = 1e-6
	}
	if c.IdleWatts == 0 {
		c.IdleWatts = 20
	}
	if c.ActiveWatts == 0 {
		c.ActiveWatts = 45
	}
	if c.LUTsUsed == 0 {
		c.LUTsUsed = 180e3
	}
	if c.LUTsTotal == 0 {
		c.LUTsTotal = 1.2e6
	}
	return c
}

// FPGA models a bump-in-the-wire FPGA accelerator running the entire
// network function in a hardware pipeline: packets are served at the
// pipeline rate with fixed latency; beyond capacity, excess packets are
// dropped (no elastic queueing in the pipeline model).
type FPGA struct {
	FaultState

	name string
	cfg  FPGAConfig
	s    *sim.Sim

	nextFree sim.Time
	busy     float64
	done     completions
	table    *nf.FlowTable
	// Served, Overflowed and Unavailable count pipeline outcomes:
	// served packets, ingress-buffer overflows, and packets arriving
	// while the pipeline was down.
	Served, Overflowed, Unavailable uint64
	// TablePunts counts packets of unknown flows punted to the host
	// because the flow table was full (SubmitFlow with a bound).
	TablePunts uint64
}

// NewFPGA builds an FPGA accelerator attached to simulator s.
func NewFPGA(name string, s *sim.Sim, cfg FPGAConfig) *FPGA {
	f := &FPGA{name: name, cfg: cfg.withDefaults(), s: s}
	if f.cfg.FlowTableSize > 0 {
		f.table = nf.NewFlowTable(f.cfg.FlowTableSize, f.cfg.TableEvict, f.cfg.EvictSeed)
	}
	return f
}

// Name implements Device.
func (f *FPGA) Name() string { return f.name }

// Config returns the effective configuration.
func (f *FPGA) Config() FPGAConfig { return f.cfg }

// Submit offers a packet to the pipeline. It returns false when the
// pipeline is down or has more than a small ingress buffer of backlog
// (the caller decides whether that means host failover or loss),
// otherwise completes done (which may be nil) with the pipeline sojourn
// breakdown. A derated pipeline serves at its reduced rate.
func (f *FPGA) Submit(done Completer) bool {
	if f.Down() {
		f.Unavailable++
		return false
	}
	now := f.s.Now()
	service := 1 / f.cfg.CapacityPps * f.slowdown()
	start := f.nextFree
	if start < now {
		start = now
	}
	if float64(start-now) > 128*service {
		f.Overflowed++
		return false
	}
	finish := start + sim.Time(service)
	f.nextFree = finish
	f.busy += service
	f.Served++
	f.done.push(pending{so: Sojourn{
		WaitSeconds:    float64(start - now),
		ServiceSeconds: service,
		FixedSeconds:   f.cfg.PipelineLatencySeconds,
	}, c: done})
	if err := f.s.Schedule(finish, f); err != nil {
		panic(err)
	}
	return true
}

// Fire implements sim.Handler: the pipeline's oldest packet finishes.
// Only the kernel calls it, once per served packet.
//
//fairbench:hotpath per-packet completion
func (f *FPGA) Fire() { f.done.pop().complete() }

// SubmitFlow offers a packet of a known five-tuple to the pipeline,
// learning flows into the bounded on-chip table first. With no table
// bound configured it is exactly Submit. Unknown flows that find the
// table full are punted (returns false) — the overflow-to-slow-path
// semantics, distinct from the ingress-buffer Overflowed outcome.
func (f *FPGA) SubmitFlow(ft packet.FiveTuple, done Completer) bool {
	if f.table != nil && !f.Down() {
		if _, known := f.table.Use(ft); !known {
			if _, _, _, ok := f.table.Put(ft, 1); !ok {
				f.TablePunts++
				return false
			}
		}
	}
	return f.Submit(done)
}

// FlowTableLen returns the number of learned flows (0 when unbounded).
func (f *FPGA) FlowTableLen() int {
	if f.table == nil {
		return 0
	}
	return f.table.Len()
}

// TableEvicted returns flow-table evictions (0 when unbounded or
// EvictNone).
func (f *FPGA) TableEvicted() uint64 {
	if f.table == nil {
		return 0
	}
	return f.table.Evictions
}

// BusySeconds returns the pipeline's cumulative busy time (sampler
// utilization probe).
func (f *FPGA) BusySeconds() float64 { return f.busy }

// BacklogPackets estimates the ingress backlog in packets at the
// current simulated time (sampler queue-depth probe).
func (f *FPGA) BacklogPackets() int {
	now := f.s.Now()
	if f.nextFree <= now {
		return 0
	}
	return int(float64(f.nextFree-now)*f.cfg.CapacityPps + 0.5)
}

// EnergyJoules implements Device.
func (f *FPGA) EnergyJoules(end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	busy := f.busy
	if busy > end.Seconds() {
		busy = end.Seconds()
	}
	return f.cfg.IdleWatts*end.Seconds() + (f.cfg.ActiveWatts-f.cfg.IdleWatts)*busy
}

// MaxPowerWatts implements Device.
func (f *FPGA) MaxPowerWatts() float64 { return f.cfg.ActiveWatts }

// CostVector implements Device: power plus LUT usage (the metric that,
// per §3.3, cannot cover CPU-only systems — exercised by the coverage
// tests).
func (f *FPGA) CostVector() cost.Vector {
	return cost.Vector{
		metric.MetricPower: metric.Q(f.cfg.ActiveWatts, metric.Watt),
		metric.MetricLUTs:  metric.Q(f.cfg.LUTsUsed, metric.LUT),
	}
}
