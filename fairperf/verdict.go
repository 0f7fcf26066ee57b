package main

import (
	"fmt"
	"sort"
	"time"

	"fairbench"
	"fairbench/internal/core"
	"fairbench/internal/rfc2544"
	"fairbench/internal/runner"
	"fairbench/internal/testbed"
	"fairbench/internal/workload"
)

// verdictSystems are the three deployments fairbench.RunSmartNIC
// measures, in its order, with its search ceilings.
var verdictSystems = []struct {
	name   string
	dut    rfc2544.DUTFactory
	maxPps float64
}{
	{"fw-host-1core", func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(1) }, 16e6},
	{"fw-host-2core", func() (*testbed.Deployment, error) { return testbed.BaselineFirewall(2) }, 24e6},
	{"fw-smartnic", testbed.SmartNICFirewall, 24e6},
}

// searchLog records one RFC 2544 search as seen through its wrapped
// factories. Each search runs on one goroutine, so a log needs no
// locking.
type searchLog struct {
	// builds holds the host seconds of each trial's DUT and generator
	// construction.
	builds []float64
	// trials holds the host seconds of each trial, from its DUT
	// build to the next trial's (or the search's end).
	trials []float64
	// packets sums the packets the trials' generators produced. Only
	// the running trial's generator is held, so the search keeps the
	// heap footprint it has unwrapped.
	packets uint64
	gen     *workload.Generator
}

// endTrial closes the running trial at now.
func (l *searchLog) endTrial(start, now time.Time) {
	if start.IsZero() {
		return
	}
	l.trials = append(l.trials, now.Sub(start).Seconds())
	if l.gen != nil {
		l.packets += l.gen.Generated
		l.gen = nil
	}
}

// verdictTrace is what the instrumented replica of RunSmartNIC
// measured.
type verdictTrace struct {
	searches []*searchLog
	// cellSeconds sums the host time of every runner.Map cell;
	// mapCapacity sums jobs × wall time of every Map call.
	cellSeconds, mapCapacity float64
	// verdictSeconds times core.EvaluateReplicated.
	verdictSeconds float64
}

func (t *verdictTrace) packets() uint64 {
	var n uint64
	for _, s := range t.searches {
		n += s.packets
	}
	return n
}

// replicaSmartNIC reproduces fairbench.RunSmartNIC from the layers it
// calls — testbed, rfc2544, runner and core — with every DUTFactory
// and GenFactory wrapped so each search can be timed and its packets
// counted. Its result must fingerprint identically to RunSmartNIC's.
func replicaSmartNIC(o fairbench.ExpOptions) (fairbench.SmartNICResult, *verdictTrace, error) {
	var res fairbench.SmartNICResult
	tr := &verdictTrace{}
	dst := []*fairbench.ReplicatedSystem{&res.Baseline1, &res.Baseline2, &res.Proposed}
	for i, sys := range verdictSystems {
		rs, err := replicaMeasure(tr, sys.name, sys.dut, o, sys.maxPps)
		if err != nil {
			return res, tr, err
		}
		*dst[i] = rs
	}
	e, err := core.NewEvaluator(core.DefaultPlane())
	if err != nil {
		return res, tr, err
	}
	if res.VerdictVs1, err = e.Evaluate(res.Proposed.ThroughputPowerSystem(true), res.Baseline1.ThroughputPowerSystem(true)); err != nil {
		return res, tr, err
	}
	if res.VerdictVs2, err = e.Evaluate(res.Proposed.ThroughputPowerSystem(true), res.Baseline2.ThroughputPowerSystem(true)); err != nil {
		return res, tr, err
	}
	t0 := hostNow()
	rv, err := e.EvaluateReplicated(
		res.Proposed.ThroughputPowerSystem(true), res.Baseline2.ThroughputPowerSystem(true),
		res.Proposed.ThroughputPowerSamples(), res.Baseline2.ThroughputPowerSamples(),
		core.RobustOptions{Level: o.CI, Seed: o.Seed})
	tr.verdictSeconds = secondsSince(t0)
	if err != nil {
		return res, tr, err
	}
	res.RobustVs2 = &rv
	return res, tr, nil
}

// replicaMeasure runs one system's replicate searches over runner.Map.
func replicaMeasure(tr *verdictTrace, name string, dut rfc2544.DUTFactory, o fairbench.ExpOptions, maxPps float64) (fairbench.ReplicatedSystem, error) {
	type cell struct {
		m    fairbench.MeasuredSystem
		log  *searchLog
		secs float64
	}
	seeds := make([]uint64, o.Trials)
	for t := range seeds {
		seeds[t] = fairbench.TrialSeed(o.Seed, t)
	}
	opts := rfc2544.Opts{MinPps: 0.2e6, MaxPps: maxPps, TrialSeconds: o.TrialSeconds, ResolutionFraction: o.SearchResolution}
	t0 := hostNow()
	cells, err := runner.Map(o.Jobs, o.Trials, func(t int) (cell, error) {
		c0 := hostNow()
		log := &searchLog{}
		var trialStart time.Time
		var buildStart time.Time
		wrappedDUT := func() (*testbed.Deployment, error) {
			now := hostNow()
			log.endTrial(trialStart, now)
			trialStart, buildStart = now, now
			return dut()
		}
		wrappedGen := func() (*workload.Generator, error) {
			g, err := testbed.E6Workload(seeds[t])
			log.builds = append(log.builds, secondsSince(buildStart))
			log.gen = g
			return g, err
		}
		r, err := rfc2544.Throughput(wrappedDUT, wrappedGen, opts)
		log.endTrial(trialStart, hostNow())
		if err != nil {
			return cell{}, fmt.Errorf("measuring %s trial %d: %w", name, t, err)
		}
		if r.Pps == 0 {
			return cell{}, fmt.Errorf("measuring %s trial %d: no sustainable rate found", name, t)
		}
		m := fairbench.MeasuredSystem{
			Name:           name,
			ThroughputGbps: r.Passing.Processed.GbPerSecond(),
			ThroughputPps:  r.Pps,
			PowerWatts:     r.Passing.ProvisionedPowerWatts,
			LatencyP50Us:   r.Passing.LatencyP50Us,
			LatencyP99Us:   r.Passing.LatencyP99Us,
		}
		if err := m.CheckFinite(); err != nil {
			return cell{}, err
		}
		return cell{m: m, log: log, secs: secondsSince(c0)}, nil
	})
	wall := secondsSince(t0)
	if err != nil {
		return fairbench.ReplicatedSystem{}, err
	}
	jobs := o.Jobs
	if jobs < 1 {
		jobs = 1
	}
	if jobs > o.Trials {
		jobs = o.Trials
	}
	tr.mapCapacity += float64(jobs) * wall
	trials := make([]fairbench.MeasuredSystem, len(cells))
	for i, c := range cells {
		trials[i] = c.m
		tr.searches = append(tr.searches, c.log)
		tr.cellSeconds += c.secs
	}
	return replicated(trials, seeds), nil
}

// replicated picks the median-throughput trial as nominal, the rule
// every replicated fairbench driver uses (stable sort, lower middle).
func replicated(trials []fairbench.MeasuredSystem, seeds []uint64) fairbench.ReplicatedSystem {
	idx := make([]int, len(trials))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return trials[idx[a]].ThroughputGbps < trials[idx[b]].ThroughputGbps
	})
	return fairbench.ReplicatedSystem{MeasuredSystem: trials[idx[(len(trials)-1)/2]], Trials: trials, Seeds: seeds}
}
