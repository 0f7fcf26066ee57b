package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"fairbench/internal/hw"
	"fairbench/internal/measure"
	"fairbench/internal/nf"
	"fairbench/internal/obs"
	"fairbench/internal/packet"
	"fairbench/internal/sim"
	"fairbench/internal/stats"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// The traced run. End-to-end jobs alternate untraced and CPU-profiled
// (the difference is the tracing overhead, and the profile gives each
// module's self-time share); one more job runs with a kernel observer
// to count events and queue depth. Then each layer's public functions
// are timed from this file on the workload's own inputs, and the layer
// ledger sets the per-layer shares against the end-to-end cost.

// microRepeats is how often each layer measurement is repeated; the
// median is reported.
const microRepeats = 3

// streamLen is the number of workload packets replayed through the
// path layers.
const streamLen = 1 << 17

func traced(w io.Writer, wl benchWorkload, seed uint64, budget time.Duration, c *checker) (map[string]float64, error) {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	cal := &calibrator{procs: wl.procs}
	for i := 0; i < minRefs; i++ {
		cal.sample()
	}
	var err error
	if wl.name == "robust-verdict" {
		err = tracedVerdict(w, seed, budget, c, cal, m)
	} else {
		err = tracedPacket(w, wl, seed, budget, c, cal, m)
	}
	for len(cal.samples) < minCalSamples {
		cal.sample()
	}
	cal.report(w)
	cal.scale(m, perLayer)
	return m, err
}

// jobSource builds the next job to time.
type jobSource func() (func() (outcome, error), error)

// pairedJobs times pairs of an untraced job from plainJob and a CPU-
// profiled job from tracedJob until the budget is spent (at least
// minPairs pairs), alternating which of the two runs first, and
// returns both sets of samples with the profile's module shares.
func pairedJobs(plainJob, tracedJob jobSource, budget time.Duration, minPairs int, c *checker, cal *calibrator) (plain, profiled []repSample, shares map[string]float64, peakMB float64, err error) {
	shares = map[string]float64{}
	var buf bytes.Buffer
	runPlain := func() error {
		cal.sample()
		j, err := plainJob()
		if err != nil {
			return err
		}
		out, s, err := timeJob(j)
		c.judge(fmt.Sprintf("untraced job %d", len(plain)+1), out, err)
		plain = append(plain, s)
		return nil
	}
	runProfiled := func() error {
		cal.sample()
		j, err := tracedJob()
		if err != nil {
			return err
		}
		buf.Reset()
		out, s, err := timeJob(func() (outcome, error) {
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return outcome{}, err
			}
			defer pprof.StopCPUProfile()
			return j()
		})
		c.judge(fmt.Sprintf("profiled job %d", len(profiled)+1), out, err)
		profiled = append(profiled, s)
		if err != nil {
			return nil
		}
		return moduleShares(buf.Bytes(), shares)
	}
	peak := startHeapPeak(2 * time.Millisecond)
	// Every return path stops the sampler and reports its peak.
	defer func() { peakMB = float64(peak.Stop()) / 1e6 }()
	start := hostNow()
	for len(plain) < minPairs || hostNow().Sub(start)+time.Duration(2*median(wallsOf(plain))*float64(time.Second)) <= budget {
		first, second := runPlain, runProfiled
		if len(plain)%2 == 1 {
			first, second = second, first
		}
		if err := first(); err != nil {
			return nil, nil, nil, 0, err
		}
		if err := second(); err != nil {
			return nil, nil, nil, 0, err
		}
	}
	return plain, profiled, shares, 0, nil
}

// recordRuntime stores the collector and profile metrics shared by
// every workload.
func recordRuntime(m map[string]float64, plain, profiled []repSample, shares map[string]float64, peakMB float64) {
	m["runtime.peak_heap_mb"] = peakMB
	var cycles uint64
	var gcCPU, totCPU float64
	for _, s := range plain {
		cycles += s.gc.cycles
		gcCPU += s.gc.gcCPU
		totCPU += s.gc.totCPU
	}
	m["runtime.gc_cycles"] = float64(cycles) / float64(len(plain))
	if totCPU > 0 {
		m["runtime.gc_cpu_frac"] = gcCPU / totCPU
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	for mod, v := range shares {
		name := mod + ".cpu_frac"
		if _, ok := m[name]; !ok {
			name = "other.cpu_frac"
		}
		if total > 0 {
			m[name] += v / total
		}
	}
	m["trace.overhead_s"] = median(wallsOf(profiled)) - median(wallsOf(plain))
}

func tracedPacket(w io.Writer, wl benchWorkload, seed uint64, budget time.Duration, c *checker, cal *calibrator, m map[string]float64) error {
	build, _, err := setupSeconds(wl, seed)
	if err != nil {
		return err
	}
	m["testbed.build_ms"] = build * 1e3
	setup := func() (*packetJob, error) {
		j, err := wl.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		return j.(*packetJob), nil
	}

	// Warm-up, then the observed job: an obs tracer's kernel hook
	// reports the event count and the pending-queue depth.
	j, err := setup()
	if err != nil {
		return err
	}
	out, err := j.run()
	c.judge("warm-up job", out, err)
	if j, err = setup(); err != nil {
		return err
	}
	var events uint64
	var depthSum, depthN float64
	tr := obs.New(nil)
	tr.SetSink(func(e obs.Event) {
		switch e.Kind {
		case "kernel":
			depthSum += float64(e.Pending)
			depthN++
		case "run-end":
			events += e.Events
		}
	})
	for _, r := range j.runs {
		r.d.Observe(tr, 0)
	}
	out, err = j.run()
	if !c.judge("observed job", out, err) {
		return fmt.Errorf("observed job failed")
	}
	packets := float64(out.packets)
	var toHost, offloadEvictions uint64
	var ct nf.ConntrackStats
	for _, r := range j.runs {
		sn := r.d.SmartNIC()
		toHost += sn.ToHost
		offloadEvictions += sn.Evicted()
		st := testbed.ConntrackStatsOf(r.d)
		ct.Evicted += st.Evicted
		ct.OverflowDrops += st.OverflowDrops
		ct.SYNCookiesSent += st.SYNCookiesSent
	}
	hostFrac := float64(toHost) / packets
	m["hw.slowpath_frac"] = hostFrac
	m["hw.offload_table_evictions"] = float64(offloadEvictions)
	m["nf.conntrack_evictions"] = float64(ct.Evicted)
	m["nf.conntrack_overflow_drops"] = float64(ct.OverflowDrops)
	m["nf.syn_cookies_sent"] = float64(ct.SYNCookiesSent)
	m["sim.events_per_pkt"] = float64(events) / packets
	depth := 1.0
	if depthN > 0 {
		depth = depthSum / depthN
	}
	m["sim.queue_depth"] = depth

	var next jobSource = func() (func() (outcome, error), error) {
		j, err := setup()
		if err != nil {
			return nil, err
		}
		return j.run, nil
	}
	plain, profiled, shares, peakMB, err := pairedJobs(next, next, budget*6/10, 2, c, cal)
	if err != nil {
		return err
	}
	recordRuntime(m, plain, profiled, shares, peakMB)
	e2e := median(wallsOf(plain)) * 1e9 / packets
	m["testbed.e2e_ns_per_pkt"] = e2e

	cal.sample()
	l, err := measureLayers(wl.name, seed, int(out.packets), int(depth+0.5))
	if err != nil {
		return err
	}
	cal.sample()
	m["sim.ns_per_event"] = l.eventNs
	m["sim.allocs_per_event"] = l.eventAllocs
	shareOf := func(name string, perCall, calls float64) ledgerRow {
		m[name] = perCall * calls
		return ledgerRow{name, perCall, calls}
	}
	rows := []ledgerRow{}
	if wl.name == "smartnic-line" {
		m["workload.gen_allocs_per_pkt"] = l.genAllocs
		rows = append(rows, shareOf("workload.gen_ns_per_pkt", l.genNs, 1))
	} else {
		m["workload.scenario_allocs_per_pkt"] = l.genAllocs
		rows = append(rows, shareOf("workload.scenario_ns_per_pkt", l.genNs, 1))
	}
	rows = append(rows,
		shareOf("hw.smartnic_offload_ns_per_pkt", l.offloadNs, 1),
		shareOf("packet.parse_ns_per_pkt", l.parseNs, hostFrac),
	)
	if wl.name == "smartnic-line" {
		rows = append(rows, shareOf("nf.firewall_ns_per_pkt", l.nfNs, hostFrac))
	} else {
		rows = append(rows, shareOf("nf.conntrack_ns_per_pkt", l.nfNs, hostFrac))
	}
	rows = append(rows, shareOf("measure.meter_ns_per_pkt", l.meterNs, 1))
	if wl.name == "state-overload" {
		rows = append(rows, shareOf("measure.statemeter_ns_per_pkt", l.stateNs, 1))
	}
	// The offload row already holds the fast path's completion events.
	rows = append(rows, shareOf("sim.kernel_ns_per_pkt", l.eventNs, m["sim.events_per_pkt"]-(1-hostFrac)))
	var sum float64
	for _, r := range rows {
		sum += r.perCall * r.calls
	}
	m["testbed.residual_ns_per_pkt"] = e2e - sum

	fmt.Fprintf(w, "# layer ledger, raw host ns per offered packet in this run (%d untraced jobs of %.0f packets)\n", len(plain), packets)
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-32s %9.1f = %8.1f ns/call x %.4f calls/pkt\n", r.name, r.perCall*r.calls, r.perCall, r.calls)
	}
	fmt.Fprintf(w, "#   %-32s %9.1f\n", "sum of layers", sum)
	fmt.Fprintf(w, "#   %-32s %9.1f (%.1f%% of end to end)\n", "testbed.residual_ns_per_pkt", e2e-sum, 100*(e2e-sum)/e2e)
	fmt.Fprintf(w, "#   %-32s %9.1f\n", "testbed.e2e_ns_per_pkt", e2e)
	printOverhead(w, plain, profiled)
	return nil
}

func printOverhead(w io.Writer, plain, profiled []repSample) {
	u, t := median(wallsOf(plain)), median(wallsOf(profiled))
	fmt.Fprintf(w, "# tracing overhead: traced %.4f s - untraced %.4f s = %.4f s per job (%+.1f%%, raw)\n", t, u, t-u, 100*(t-u)/u)
}

type ledgerRow struct {
	name           string
	perCall, calls float64
}

// layerCosts are per-call host costs measured from this file.
type layerCosts struct {
	genNs, genAllocs                           float64
	offloadNs, parseNs, nfNs, meterNs, stateNs float64
	eventNs, eventAllocs                       float64
}

// stream is a copy of the first packets of a workload's traffic.
type stream struct {
	flows   []packet.FiveTuple
	frames  [][]byte
	classes []string
	times   []float64
}

// medians runs f microRepeats times and returns the median of each of
// its results.
func medians(f func() ([]float64, error)) ([]float64, error) {
	var runs [][]float64
	for i := 0; i < microRepeats; i++ {
		r, err := f()
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	out := make([]float64, len(runs[0]))
	for k := range out {
		col := make([]float64, len(runs))
		for i, r := range runs {
			col[i] = r[k]
		}
		out[k] = median(col)
	}
	return out, nil
}

// measureLayers times each layer on the workload's inputs: the
// generator over a whole job's packets, the path layers over the
// first streamLen of them, and the kernel at the observed queue depth.
func measureLayers(name string, seed uint64, packets, depth int) (layerCosts, error) {
	var l layerCosts
	line := name == "smartnic-line"
	gen, err := medians(func() ([]float64, error) {
		if line {
			return timeGenerator(seed, packets)
		}
		return timeScenario(seed, packets)
	})
	if err != nil {
		return l, err
	}
	st, err := captureStream(line, seed, min(packets, streamLen))
	if err != nil {
		return l, err
	}
	path, err := medians(func() ([]float64, error) { return timePath(line, seed, st) })
	if err != nil {
		return l, err
	}
	meters, _ := medians(func() ([]float64, error) { return timeMeters(st, !line), nil })
	kernel, _ := medians(func() ([]float64, error) { return timeKernel(depth, 1<<21, seed), nil })
	return layerCosts{
		genNs: gen[0], genAllocs: gen[1],
		offloadNs: path[0], parseNs: path[1], nfNs: path[2],
		meterNs: meters[0], stateNs: meters[1],
		eventNs: kernel[0], eventAllocs: kernel[1],
	}, nil
}

// timeAllocs runs f and returns its host nanoseconds and allocations.
func timeAllocs(f func() error) (ns float64, allocs uint64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := hostNow()
	err = f()
	ns = float64(hostNow().Sub(t0).Nanoseconds())
	runtime.ReadMemStats(&after)
	return ns, after.Mallocs - before.Mallocs, err
}

// timeGenerator returns ns and allocations per Generator.Next over a
// smartnic-line job's n packets: lineRuns fresh generators with the
// job's derived seeds, n/lineRuns packets each.
func timeGenerator(seed uint64, n int) ([]float64, error) {
	gens := make([]*workload.Generator, lineRuns)
	for k := range gens {
		var err error
		if gens[k], err = testbed.E6Workload(lineSeed(seed, k)); err != nil {
			return nil, err
		}
	}
	per := n / lineRuns
	ns, allocs, err := timeAllocs(func() error {
		for _, g := range gens {
			for i := 0; i < per; i++ {
				if _, err := g.Next(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	total := float64(per * lineRuns)
	return []float64{ns / total, float64(allocs) / total}, err
}

// scenarioTimes draws the arrival instants RunScenario would offer
// packets at.
func scenarioTimes(sg *workload.ScenarioGen, n int) []float64 {
	rng := sg.ArrivalRNG()
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += workload.Poisson{}.NextGap(rng, overloadPps*sg.RateFactor(t))
		out[i] = t
	}
	return out
}

// timeScenario returns ns and allocations per ScenarioGen.NextAt.
func timeScenario(seed uint64, n int) ([]float64, error) {
	sg, err := overloadScenarioGen(seed)
	if err != nil {
		return nil, err
	}
	times := scenarioTimes(sg, n)
	ns, allocs, err := timeAllocs(func() error {
		for _, t := range times {
			if _, _, err := sg.NextAt(t); err != nil {
				return err
			}
		}
		return nil
	})
	return []float64{ns / float64(n), float64(allocs) / float64(n)}, err
}

// captureStream copies the first n packets of the workload's traffic
// with their arrival instants.
func captureStream(line bool, seed uint64, n int) (stream, error) {
	st := stream{
		flows: make([]packet.FiveTuple, n), frames: make([][]byte, n),
		classes: make([]string, n), times: make([]float64, n),
	}
	if line {
		g, err := testbed.E6Workload(seed)
		if err != nil {
			return st, err
		}
		for i := 0; i < n; i++ {
			pk, err := g.Next()
			if err != nil {
				return st, err
			}
			st.flows[i], st.frames[i] = pk.Flow, append([]byte(nil), pk.Frame...)
			st.classes[i] = string(workload.ClassLegit)
			st.times[i] = float64(i+1) / linePps
		}
		return st, nil
	}
	sg, err := overloadScenarioGen(seed)
	if err != nil {
		return st, err
	}
	st.times = scenarioTimes(sg, n)
	for i, t := range st.times {
		pk, class, err := sg.NextAt(t)
		if err != nil {
			return st, err
		}
		st.flows[i], st.frames[i], st.classes[i] = pk.Flow, append([]byte(nil), pk.Frame...), string(class)
	}
	return st, nil
}

// pathBatch is the number of arrivals offered per timed batch; it
// stays under the SmartNIC's 64-packet fast-path queue.
const pathBatch = 32

// timePath replays the stream through the packet path's layers the
// way Deployment dispatch calls them: SmartNIC.Offload on a bare
// sim.Sim for every packet, then Parser.Parse and the network function
// for the packets the NIC punts, installing offload entries for the
// flows the function accepts. Batches of arrivals are timed per layer.
// The offload time includes running the bare kernel up to each batch,
// so the fast path's completion events are counted here, once. It
// returns ns per Offload, per Parse and per network-function call.
func timePath(line bool, seed uint64, st stream) ([]float64, error) {
	s := sim.New()
	var sn *hw.SmartNIC
	var fn nf.Func
	rules := nf.NewLinearMatcher(testbed.FirewallRules(testbed.DefaultFillerRules))
	if line {
		sn = hw.NewSmartNIC("bench/smartnic", s, testbed.ScenarioSmartNIC)
		fn = nf.NewFirewall("bench/fw", rules)
	} else {
		sn = hw.NewSmartNIC("bench/smartnic", s, overloadSmartNIC(seed))
		fn = nf.NewConntrackWith("bench/ct", rules, overloadConntrack(seed))
	}
	parsers := make([]*packet.Parser, pathBatch)
	for i := range parsers {
		parsers[i] = packet.NewParser()
	}
	var hit [pathBatch]bool
	var verdicts [pathBatch]nf.Verdict
	var offload, parse, nfTime time.Duration
	misses := 0
	for b := 0; b < len(st.flows); b += pathBatch {
		e := min(b+pathBatch, len(st.flows))
		t0 := hostNow()
		s.Run(sim.Time(st.times[b]))
		for i := b; i < e; i++ {
			hit[i-b] = sn.Offload(st.flows[i], nil)
		}
		t1 := hostNow()
		for i := b; i < e; i++ {
			if !hit[i-b] {
				if err := parsers[i-b].Parse(st.frames[i]); err != nil {
					return nil, err
				}
			}
		}
		t2 := hostNow()
		for i := b; i < e; i++ {
			if !hit[i-b] {
				r, err := fn.Process(parsers[i-b], st.frames[i])
				if err != nil {
					return nil, err
				}
				verdicts[i-b] = r.Verdict
			}
		}
		t3 := hostNow()
		offload += t1.Sub(t0)
		parse += t2.Sub(t1)
		nfTime += t3.Sub(t2)
		for i := b; i < e; i++ {
			if !hit[i-b] {
				misses++
				if verdicts[i-b] != nf.Drop {
					sn.Install(st.flows[i])
				}
			}
		}
	}
	if misses == 0 {
		misses = 1
	}
	return []float64{
		float64(offload.Nanoseconds()) / float64(len(st.flows)),
		float64(parse.Nanoseconds()) / float64(misses),
		float64(nfTime.Nanoseconds()) / float64(misses),
	}, nil
}

// timeMeters replays the stream through the meters every run attaches
// (throughput, latency, fairness) and, for scenario runs, the per-class
// StateMeter; it returns ns per packet for each.
func timeMeters(st stream, state bool) []float64 {
	var meterNs, stateNs float64
	var tput measure.ThroughputMeter
	lat := measure.NewLatencyMeter()
	fair := measure.NewFairnessMeter()
	n := float64(len(st.flows))
	ns, _, _ := timeAllocs(func() error {
		for i, ft := range st.flows {
			size := len(st.frames[i])
			tput.Offer(size)
			tput.Process(size, true)
			_ = lat.RecordSeconds(2e-6 + float64(i%97)*1e-8)
			fair.Record(ft, size)
		}
		return nil
	})
	meterNs = ns / n
	if state {
		sm := measure.NewStateMeter()
		ns, _, _ = timeAllocs(func() error {
			for i, class := range st.classes {
				size := len(st.frames[i])
				sm.Offer(class, size)
				sm.Deliver(class, size)
			}
			return nil
		})
		stateNs = ns / n
	}
	return []float64{meterNs, stateNs}
}

// timeKernel measures one event's schedule, pop and dispatch with
// depth events pending: depth self-rescheduling chains at exponential
// gaps (drawn from seed) keep the heap at that depth. The chains'
// callbacks are built once, so any allocation counted is the kernel's
// own. The first quarter of the events warms the heap and is not
// timed. It returns ns and allocations per event.
func timeKernel(depth, events int, seed uint64) []float64 {
	if depth < 1 {
		depth = 1
	}
	s := sim.New()
	rng := sim.NewRNG(seed)
	gaps := make([]float64, 4096)
	for i := range gaps {
		gaps[i] = rng.Exp(1) * float64(depth)
	}
	fired, stopAt := 0, events/4
	chains := make([]func(), depth)
	for c := range chains {
		c := c
		chains[c] = func() {
			fired++
			if fired == stopAt {
				s.Halt()
			}
			_ = s.After(gaps[fired&4095], chains[c])
		}
		_ = s.At(sim.Time(gaps[c&4095]), chains[c])
	}
	s.RunAll()
	stopAt = fired + events
	ns, allocs, _ := timeAllocs(func() error {
		s.RunAll()
		return nil
	})
	return []float64{ns / float64(events), float64(allocs) / float64(events)}
}

// tracedVerdict alternates untraced fairbench.RunSmartNIC calls with
// the instrumented replica under the CPU profiler, then times the
// verdict's bootstrap on the replica's samples.
func tracedVerdict(w io.Writer, seed uint64, budget time.Duration, c *checker, cal *calibrator, m map[string]float64) error {
	o := verdictOptions(seed)
	var last *verdictTrace
	var axes [4][]float64
	var plainJob jobSource = func() (func() (outcome, error), error) { return verdictJob{o: o}.run, nil }
	var replica jobSource = func() (func() (outcome, error), error) {
		return func() (outcome, error) {
			res, tr, err := replicaSmartNIC(o)
			if err != nil {
				return outcome{}, err
			}
			p, b := res.Proposed.ThroughputPowerSamples(), res.Baseline2.ThroughputPowerSamples()
			last, axes = tr, [4][]float64{p.Perf, p.Cost, b.Perf, b.Cost}
			return verdictOutcome(res, o), nil
		}, nil
	}
	plain, profiled, shares, peakMB, err := pairedJobs(plainJob, replica, budget*8/10, 1, c, cal)
	if err != nil {
		return err
	}
	if last == nil {
		return fmt.Errorf("no replica completed")
	}
	recordRuntime(m, plain, profiled, shares, peakMB)

	var trials, builds []float64
	for _, s := range last.searches {
		trials = append(trials, s.trials...)
		builds = append(builds, s.builds...)
	}
	m["rfc2544.trials_per_search"] = float64(len(trials)) / float64(len(last.searches))
	m["rfc2544.trial_ms_p50"] = quantile(trials, 0.5) * 1e3
	m["rfc2544.trial_ms_p90"] = quantile(trials, 0.9) * 1e3
	m["testbed.build_ms"] = median(builds) * 1e3
	m["runner.busy_frac"] = last.cellSeconds / last.mapCapacity
	m["core.robust_verdict_ms"] = last.verdictSeconds * 1e3

	// The verdict bootstraps the median of each axis of each system
	// on its own stream (core.summarizeAxis); time those four calls.
	var boots []float64
	for i := 0; i < 50; i++ {
		t0 := hostNow()
		for k, axis := range axes {
			if _, err := stats.MedianCI(axis, 200, o.CI, stats.MixSeed(o.Seed, uint64(k+1))); err != nil {
				return err
			}
		}
		boots = append(boots, secondsSince(t0))
	}
	m["stats.bootstrap_ms"] = median(boots) * 1e3

	fmt.Fprintf(w, "# %d searches, %.0f simulated packets per verdict; runner busy %.3f; RunSmartNIC wall %.3f s\n",
		len(last.searches), float64(last.packets()), m["runner.busy_frac"], median(wallsOf(plain)))
	printOverhead(w, plain, profiled)
	return nil
}
