package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fairbench"
	"fairbench/internal/core"
	"fairbench/internal/hw"
	"fairbench/internal/measure"
	"fairbench/internal/nf"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// A job is one fixed unit of simulated work: one deployment run for
// the packet workloads, one replicated verdict for robust-verdict.
type job interface {
	run() (outcome, error)
}

// benchWorkload is one named input set of the benchmark.
type benchWorkload struct {
	name string
	// params names every input property besides the seed; it is
	// stamped on every output.
	params string
	// procs is the GOMAXPROCS the workload runs with. The simulation
	// kernel is single-threaded, so the packet workloads use one
	// thread (which also keeps the collector on the measured path and
	// the timings steadier on a shared host); robust-verdict runs its
	// trials on two.
	procs int
	// setup builds everything one job needs. It is timed as setup_s
	// and kept out of the timed job.
	setup func(seed uint64) (job, error)
}

// Workload parameters. The simulated offered load is an open loop in
// simulated time; the host runs each job as fixed batch work.
const (
	linePps        = 4e6     // CBR, just under the SmartNIC's 4.2 Mpps fast path
	lineSimSeconds = 0.03125 // 125k packets per run
	lineRuns       = 8       // runs per job: 1M packets

	overloadPps        = 6e6 // Poisson, above capacity
	overloadSimSeconds = 0.1 // about 600k packets per job
	overloadTableSize  = 4096
	overloadCTEntries  = 1 << 16

	verdictTrials = 5
	verdictJobs   = 2
)

// overloadScenario is the state-overload traffic spec; the churn
// lifetime is half the job so the whole flow population turns over
// once per job.
var overloadScenario = fmt.Sprintf("zipf:flows=1000000,skew=1.1,tcp=0.3;synflood:rate=0.5;churn:life=%g", overloadSimSeconds/2)

var workloads = []benchWorkload{
	{
		name: "smartnic-line",
		params: fmt.Sprintf("deployment=testbed.SmartNICFirewall traffic=testbed.E6Workload(flows=1024,zipf=1.1,imix,attack=0.2) arrival=cbr pps=%g sim_seconds=%g runs_per_job=%d",
			linePps, lineSimSeconds, lineRuns),
		procs: 1,
		setup: setupLine,
	},
	{
		name: "state-overload",
		params: fmt.Sprintf("deployment=testbed.StatePressureSmartNIC(offload_table=%d,lru;conntrack=%d,lru,syn_cookies) scenario=%q arrival=poisson pps=%g sim_seconds=%g",
			overloadTableSize, overloadCTEntries, overloadScenario, overloadPps, overloadSimSeconds),
		procs: 1,
		setup: setupOverload,
	},
	{
		name: "robust-verdict",
		params: fmt.Sprintf("call=fairbench.RunSmartNIC options=Quick()+Trials=%d,Jobs=%d",
			verdictTrials, verdictJobs),
		procs: verdictJobs,
		setup: setupVerdict,
	},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// packetJob is one job of a packet workload: one or more deployment
// runs, each with its own traffic seed.
type packetJob struct {
	runs []packetRun
}

// packetRun is one deployment run.
type packetRun struct {
	d *testbed.Deployment
	// simulate runs the deployment; the StateSummary is nil for runs
	// without a state meter.
	simulate func() (testbed.Result, *measure.StateSummary, error)
}

func (j *packetJob) run() (outcome, error) {
	var job outcome
	var text strings.Builder
	for k, r := range j.runs {
		res, st, err := r.simulate()
		if err != nil {
			return outcome{}, err
		}
		out := packetOutcome(res, r.d.SmartNIC(), st, testbed.ConntrackStatsOf(r.d))
		fmt.Fprintf(&text, "run %d\n%s", k, out.text)
		job.packets += out.packets
		if job.invariant == nil && out.invariant != nil {
			job.invariant = fmt.Errorf("run %d: %w", k, out.invariant)
		}
	}
	job.text = text.String()
	job.fingerprint = digestOf(job.text)
	return job, nil
}

// packetOutcome fingerprints a packet workload's simulated statistics
// — the Result, the SmartNIC's dispatch counters and, for scenario
// runs, the per-class and per-table summary with the connection-table
// counters — and checks that every offered packet is accounted for.
func packetOutcome(res testbed.Result, sn *hw.SmartNIC, st *measure.StateSummary, ct nf.ConntrackStats) outcome {
	var fp digest
	fp.result(res)
	fp.add("smartnic.offloaded", sn.Offloaded)
	fp.add("smartnic.to_host", sn.ToHost)
	fp.add("smartnic.saturated", sn.Saturated)
	fp.add("smartnic.install_refused", sn.InstallRefused)
	fp.add("smartnic.evicted", sn.Evicted())
	inv := checkResult(res)
	if inv == nil && sn.Offloaded+sn.ToHost != res.Offered.Packets {
		inv = fmt.Errorf("smartnic dispatched %d+%d packets of %d offered", sn.Offloaded, sn.ToHost, res.Offered.Packets)
	}
	if st != nil {
		fp.stateSummary(*st)
		fp.add("conntrack", fmt.Sprintf("%+v", ct))
		if inv == nil {
			inv = checkState(*st, res.Offered.Packets)
		}
	}
	return outcome{packets: res.Offered.Packets, fingerprint: fp.sum(), text: fp.text(), invariant: inv}
}

// lineSeed derives the traffic seed of run k of a smartnic-line job;
// run 0 uses the seed itself.
func lineSeed(seed uint64, k int) uint64 { return fairbench.TrialSeed(seed, k) }

// setupLine builds the smartnic-line job: the §4.2 SmartNIC firewall
// under the §4.2 traffic mix, lineRuns times with derived seeds. Which
// of the 1024 Zipf flows are attack traffic — and so how much of it
// takes the slow path — depends on the seed; several draws per job
// keep a job's work nearly the same from seed to seed.
func setupLine(seed uint64) (job, error) {
	j := &packetJob{}
	for k := 0; k < lineRuns; k++ {
		d, err := testbed.SmartNICFirewall()
		if err != nil {
			return nil, err
		}
		g, err := testbed.E6Workload(lineSeed(seed, k))
		if err != nil {
			return nil, err
		}
		j.runs = append(j.runs, packetRun{d: d, simulate: func() (testbed.Result, *measure.StateSummary, error) {
			r, err := d.Run(g, workload.CBR{}, linePps, lineSimSeconds)
			return r, nil, err
		}})
	}
	return j, nil
}

// overloadSmartNIC is the state-overload offload NIC: the calibrated
// SmartNIC with a small LRU-managed offload table.
func overloadSmartNIC(seed uint64) hw.SmartNICConfig {
	snic := testbed.ScenarioSmartNIC
	snic.FlowTableSize = overloadTableSize
	snic.TableEvict = nf.EvictLRU
	snic.EvictSeed = seed
	return snic
}

// overloadConntrack is the production host connection table.
func overloadConntrack(seed uint64) nf.ConntrackConfig {
	return nf.ConntrackConfig{MaxEntries: overloadCTEntries, Policy: nf.EvictLRU, SYNCookies: true, Seed: seed}
}

func overloadScenarioGen(seed uint64) (*workload.ScenarioGen, error) {
	sc, err := workload.ParseScenario(overloadScenario)
	if err != nil {
		return nil, err
	}
	sc.Seed = seed
	return workload.NewScenarioGen(sc)
}

// setupOverload builds the state-overload job: the bounded state plane
// driven above capacity by adversarial scenario traffic.
func setupOverload(seed uint64) (job, error) {
	d, probes, err := testbed.StatePressureSmartNIC("fw-smartnic-ct", overloadSmartNIC(seed), overloadConntrack(seed))
	if err != nil {
		return nil, err
	}
	sg, err := overloadScenarioGen(seed)
	if err != nil {
		return nil, err
	}
	sm := measure.NewStateMeter()
	for _, p := range probes {
		sm.AddProbe(p)
	}
	return &packetJob{runs: []packetRun{{d: d, simulate: func() (testbed.Result, *measure.StateSummary, error) {
		r, err := d.RunScenario(sg, workload.Poisson{}, overloadPps, overloadSimSeconds, sm)
		if err != nil {
			return r, nil, err
		}
		st, err := sm.Summarize(overloadSimSeconds)
		return r, &st, err
	}}}}, nil
}

// verdictOptions are the options of the sweep's smartnic-robust cell.
func verdictOptions(seed uint64) fairbench.ExpOptions {
	o := fairbench.Quick()
	o.Seed = seed
	o.Trials = verdictTrials
	o.Jobs = verdictJobs
	return o
}

// verdictJob is one fairbench.RunSmartNIC call. RunSmartNIC builds its
// deployments itself, so the set-up this job times is the deployment
// set one replicate search trial builds.
type verdictJob struct{ o fairbench.ExpOptions }

func setupVerdict(seed uint64) (job, error) {
	for _, mk := range verdictSystems {
		if _, err := mk.dut(); err != nil {
			return nil, err
		}
	}
	if _, err := testbed.E6Workload(seed); err != nil {
		return nil, err
	}
	return verdictJob{o: verdictOptions(seed)}, nil
}

func (j verdictJob) run() (outcome, error) {
	res, err := fairbench.RunSmartNIC(j.o)
	if err != nil {
		return outcome{}, err
	}
	return verdictOutcome(res, j.o), nil
}

// verdictOutcome fingerprints a replicated SmartNIC comparison and
// checks its internal consistency.
func verdictOutcome(res fairbench.SmartNICResult, o fairbench.ExpOptions) outcome {
	var fp digest
	for _, s := range []fairbench.ReplicatedSystem{res.Baseline1, res.Baseline2, res.Proposed} {
		for i, t := range s.Trials {
			p := s.Name + ".trial" + strconv.Itoa(i)
			fp.add(p+".pps", t.ThroughputPps)
			fp.add(p+".gbps", t.ThroughputGbps)
			fp.add(p+".watts", t.PowerWatts)
			fp.add(p+".p50_us", t.LatencyP50Us)
			fp.add(p+".p99_us", t.LatencyP99Us)
		}
	}
	fp.add("vs1.conclusion", res.VerdictVs1.Conclusion)
	fp.add("vs1.relation", res.VerdictVs1.Direct)
	fp.add("vs2.conclusion", res.VerdictVs2.Conclusion)
	fp.add("vs2.relation", res.VerdictVs2.Direct)
	var inv error
	rv := res.RobustVs2
	if rv == nil {
		return outcome{fingerprint: fp.sum(), text: fp.text(), invariant: fmt.Errorf("no replicated verdict")}
	}
	fp.add("robust.conclusion", rv.Conclusion)
	fp.add("robust.relation", rv.Direct)
	fp.add("robust.confidence", rv.Confidence)
	conclusions := make([]int, 0, len(rv.Distribution))
	total := 0
	for c, n := range rv.Distribution {
		conclusions = append(conclusions, int(c))
		total += n
	}
	sort.Ints(conclusions)
	for _, c := range conclusions {
		fp.add("robust.dist."+core.Conclusion(c).String(), rv.Distribution[core.Conclusion(c)])
	}
	switch {
	case total != rv.Resamples:
		inv = fmt.Errorf("conclusion distribution sums to %d of %d resamples", total, rv.Resamples)
	case rv.ProposedTrials != o.Trials || rv.BaselineTrials != o.Trials:
		inv = fmt.Errorf("verdict over %d+%d trials, want %d each", rv.ProposedTrials, rv.BaselineTrials, o.Trials)
	case rv.Confidence < 0 || rv.Confidence > 1:
		inv = fmt.Errorf("confidence %v outside [0, 1]", rv.Confidence)
	}
	return outcome{fingerprint: fp.sum(), text: fp.text(), invariant: inv}
}

// checkResult verifies that every offered packet was processed or lost
// exactly once.
func checkResult(r testbed.Result) error {
	lost := uint64(r.LossFraction*float64(r.Offered.Packets) + 0.5)
	if r.Offered.Packets == 0 {
		return fmt.Errorf("%s: no packets offered", r.Name)
	}
	if r.Processed.Packets+lost != r.Offered.Packets {
		return fmt.Errorf("%s: offered %d != processed %d + lost %d", r.Name, r.Offered.Packets, r.Processed.Packets, lost)
	}
	return nil
}

// checkState verifies per-class conservation: offered = delivered +
// dropped + lost, and that the classes sum to the offered total.
func checkState(s measure.StateSummary, offered uint64) error {
	var sum uint64
	for _, c := range s.Classes {
		if c.Offered != c.Delivered+c.Dropped+c.Lost {
			return fmt.Errorf("class %s: offered %d != delivered %d + dropped %d + lost %d",
				c.Class, c.Offered, c.Delivered, c.Dropped, c.Lost)
		}
		sum += c.Offered
	}
	if sum != offered {
		return fmt.Errorf("classes offered %d packets, run offered %d", sum, offered)
	}
	return nil
}

// digest accumulates named simulated statistics in a canonical text
// form (floats in shortest round-trip form) and hashes it.
type digest struct{ b strings.Builder }

func (d *digest) add(name string, v any) {
	var s string
	switch x := v.(type) {
	case float64:
		s = strconv.FormatFloat(x, 'g', -1, 64)
	case fmt.Stringer:
		s = x.String()
	default:
		s = fmt.Sprint(x)
	}
	d.b.WriteString(name)
	d.b.WriteByte('=')
	d.b.WriteString(s)
	d.b.WriteByte('\n')
}

func (d *digest) result(r testbed.Result) {
	d.add("name", r.Name)
	d.add("duration", r.Duration)
	d.add("offered.pkts", r.Offered.Packets)
	d.add("offered.bits", r.Offered.Bits)
	d.add("processed.pkts", r.Processed.Packets)
	d.add("processed.bits", r.Processed.Bits)
	d.add("forwarded.pkts", r.Forwarded.Packets)
	d.add("forwarded.bits", r.Forwarded.Bits)
	d.add("loss", r.LossFraction)
	d.add("lat.mean_us", r.LatencyMeanUs)
	d.add("lat.p50_us", r.LatencyP50Us)
	d.add("lat.p99_us", r.LatencyP99Us)
	d.add("jfi", r.JFI)
	d.add("power.avg_w", r.AvgPowerWatts)
	d.add("power.provisioned_w", r.ProvisionedPowerWatts)
	devs := make([]string, 0, len(r.PerDeviceAvgWatts))
	for name := range r.PerDeviceAvgWatts {
		devs = append(devs, name)
	}
	sort.Strings(devs)
	for _, name := range devs {
		d.add("power."+name, r.PerDeviceAvgWatts[name])
	}
}

func (d *digest) stateSummary(s measure.StateSummary) {
	for _, c := range s.Classes {
		p := "class." + c.Class
		d.add(p+".offered", c.Offered)
		d.add(p+".offered_bytes", c.OfferedBytes)
		d.add(p+".delivered", c.Delivered)
		d.add(p+".delivered_bytes", c.DeliveredBytes)
		d.add(p+".dropped", c.Dropped)
		d.add(p+".lost", c.Lost)
	}
	for _, t := range s.Tables {
		p := "table." + t.Name
		d.add(p+".capacity", t.Capacity)
		d.add(p+".final", t.FinalOccupancy)
		d.add(p+".peak", t.PeakOccupancy)
		d.add(p+".evictions", t.Evictions)
	}
	d.add("goodput_gbps", s.GoodputGbps)
	d.add("collateral", s.CollateralFraction)
}

func (d *digest) text() string { return d.b.String() }

func (d *digest) sum() string { return digestOf(d.b.String()) }

// digestOf returns the first 16 hex digits of the SHA-256 of text.
func digestOf(text string) string {
	h := sha256.Sum256([]byte(text))
	return hex.EncodeToString(h[:8])
}
