package main

// metricDef describes one reported metric. The end-to-end and
// per-layer tables are the benchmark's contract: BENCHMARK.json lists
// the same names, units and directions (fairperf_test.go checks it).
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an
	// end-to-end metric may worsen before a change counts as a
	// regression (per-layer metrics have none).
	bound float64
	// moves names the end-to-end metric and workload a change in this
	// layer metric should move (per-layer metrics only).
	moves string
	// supersedes names the BENCH_baseline.json case this metric
	// replaces, if any.
	supersedes string
	about      string
}

// endToEnd are the metrics a user of the simulator sees: the host cost
// of one fixed job. Timings are medians over the jobs of one run, at
// the reference host speed (clock.go).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		about: "median host time to build one job's deployments, generators and scenario population"},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25,
		about: "median host wall time of one job"},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25,
		about: "median process user+system CPU time of one job"},
	{name: "sim_pkts_per_s", unit: "1/s", better: "higher", bound: 0.25,
		about: "simulated packets offered per host second (packets per job / wall_s)"},
	{name: "allocs_per_pkt", unit: "count", better: "lower", bound: 0.06,
		about: "heap allocations per simulated packet over every timed job"},
	{name: "alloc_bytes_per_pkt", unit: "B", better: "lower", bound: 0.06,
		about: "heap bytes allocated per simulated packet over every timed job"},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.06,
		about: "heap megabytes allocated per job"},
}

// perLayer are the traced run's metrics. Every *_ns_per_pkt metric is
// the layer's share of one offered packet's host time — its cost per
// call times its calls per offered packet — so the shares add up in
// the layer ledger; a layer the workload does not reach reports 0.
var perLayer = []metricDef{
	{name: "workload.gen_ns_per_pkt", unit: "ns", better: "lower",
		moves: "sim_pkts_per_s on smartnic-line",
		about: "Generator.Next"},
	{name: "workload.gen_allocs_per_pkt", unit: "count", better: "lower",
		moves: "allocs_per_pkt on smartnic-line",
		about: "allocations per Generator.Next"},
	{name: "workload.scenario_ns_per_pkt", unit: "ns", better: "lower",
		moves: "sim_pkts_per_s on state-overload", supersedes: "workload-scenario-gen",
		about: "ScenarioGen.NextAt"},
	{name: "workload.scenario_allocs_per_pkt", unit: "count", better: "lower",
		moves: "allocs_per_pkt on state-overload",
		about: "allocations per ScenarioGen.NextAt"},
	{name: "packet.parse_ns_per_pkt", unit: "ns", better: "lower",
		moves: "sim_pkts_per_s on smartnic-line", supersedes: "packet-parse",
		about: "Parser.Parse on slow-path packets"},
	{name: "nf.firewall_ns_per_pkt", unit: "ns", better: "lower",
		moves: "sim_pkts_per_s on smartnic-line", supersedes: "nf-firewall-process",
		about: "Firewall.Process on slow-path packets"},
	{name: "nf.conntrack_ns_per_pkt", unit: "ns", better: "lower",
		moves: "sim_pkts_per_s on state-overload", supersedes: "nf-conntrack-evict-lru, nf-conntrack-evict-none, nf-conntrack-evict-random",
		about: "Conntrack.Process on slow-path packets"},
	{name: "nf.conntrack_evictions", unit: "count", better: "lower",
		moves: "none: a simulated count, must repeat exactly",
		about: "host connection-table evictions in one job"},
	{name: "nf.conntrack_overflow_drops", unit: "count", better: "lower",
		moves: "none: a simulated count, must repeat exactly",
		about: "packets refused by a full connection table in one job"},
	{name: "nf.syn_cookies_sent", unit: "count", better: "lower",
		moves: "none: a simulated count, must repeat exactly",
		about: "stateless SYN accepts in one job"},
	{name: "hw.smartnic_offload_ns_per_pkt", unit: "ns", better: "lower",
		moves: "sim_pkts_per_s on smartnic-line and state-overload",
		about: "SmartNIC.Offload on a bare sim.Sim, every offered packet, with the kernel work of its completion events"},
	{name: "hw.offload_table_evictions", unit: "count", better: "lower",
		moves: "none: a simulated count, must repeat exactly (state-overload)",
		about: "SmartNIC offload-table evictions in one job"},
	{name: "hw.slowpath_frac", unit: "fraction", better: "lower",
		moves: "sim_pkts_per_s on state-overload (weights the slow-path layers)",
		about: "share of offered packets punted to the host slow path"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower",
		moves: "sim_pkts_per_s, most on state-overload", supersedes: "sim-event-throughput",
		about: "schedule+pop+dispatch of one event at the workload's mean queue depth (per event, not per packet)"},
	{name: "sim.allocs_per_event", unit: "count", better: "lower",
		moves: "allocs_per_pkt on smartnic-line and state-overload", supersedes: "sim-event-throughput",
		about: "allocations per scheduled event, exact"},
	{name: "sim.events_per_pkt", unit: "count", better: "lower",
		moves: "sim_pkts_per_s on smartnic-line and state-overload",
		about: "kernel events processed per offered packet"},
	{name: "sim.queue_depth", unit: "count", better: "lower",
		moves: "sim.ns_per_event on state-overload",
		about: "mean pending events, sampled every 256 events"},
	{name: "sim.kernel_ns_per_pkt", unit: "ns", better: "lower",
		moves: "sim_pkts_per_s, most on state-overload",
		about: "sim.ns_per_event x the events per packet no measured layer schedules (all but the fast-path completions)"},
	{name: "measure.meter_ns_per_pkt", unit: "ns", better: "lower",
		moves: "sim_pkts_per_s on smartnic-line",
		about: "throughput, latency and fairness meters per packet"},
	{name: "measure.statemeter_ns_per_pkt", unit: "ns", better: "lower",
		moves: "sim_pkts_per_s on state-overload",
		about: "StateMeter.Offer and Deliver per packet"},
	{name: "testbed.e2e_ns_per_pkt", unit: "ns", better: "lower",
		moves: "sim_pkts_per_s on smartnic-line and state-overload", supersedes: "testbed-smartnic-packet",
		about: "untraced host time per offered packet, the ledger's total"},
	{name: "testbed.residual_ns_per_pkt", unit: "ns", better: "lower",
		moves: "sim_pkts_per_s on smartnic-line and state-overload",
		about: "ledger residual: dispatch, completion closures, core model and glue"},
	{name: "testbed.build_ms", unit: "ms", better: "lower",
		moves: "setup_s on every workload; wall_s on robust-verdict",
		about: "median host time to build one deployment and its generator"},
	{name: "trace.overhead_s", unit: "s", better: "lower",
		moves: "none: traced minus untraced wall_s of one job",
		about: "cost of tracing one job"},
	{name: "rfc2544.trials_per_search", unit: "count", better: "lower",
		moves: "wall_s on robust-verdict",
		about: "deployment runs per RFC 2544 throughput search"},
	{name: "rfc2544.trial_ms_p50", unit: "ms", better: "lower",
		moves: "wall_s on robust-verdict",
		about: "median host time of one search trial (build + run)"},
	{name: "rfc2544.trial_ms_p90", unit: "ms", better: "lower",
		moves: "wall_s on robust-verdict",
		about: "90th percentile host time of one search trial"},
	{name: "stats.bootstrap_ms", unit: "ms", better: "lower",
		moves: "wall_s on robust-verdict (predicted small)",
		about: "the four per-axis median bootstraps of one replicated verdict"},
	{name: "core.robust_verdict_ms", unit: "ms", better: "lower",
		moves: "wall_s on robust-verdict (predicted small)",
		about: "core.EvaluateReplicated"},
	{name: "runner.busy_frac", unit: "fraction", better: "higher",
		moves: "wall_s on robust-verdict", supersedes: "runner-cell-parallel, runner-cell-serial",
		about: "summed runner.Map cell time over jobs x Map wall time"},
	{name: "runtime.peak_heap_mb", unit: "MB", better: "lower",
		moves: "none predicted: with a few MB live, collector pacing sets it (it varies about 35% run to run on smartnic-line)",
		about: "largest heap-object footprint sampled every 2 ms while untraced jobs ran"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower",
		moves: "wall_s and cpu_s wherever allocations fall",
		about: "GC cycles per job"},
	{name: "runtime.gc_cpu_frac", unit: "fraction", better: "lower",
		moves: "cpu_s wherever allocations fall",
		about: "GC share of the runtime's CPU estimate during jobs"},
}

// profiledModules are the buckets of the traced run's CPU profile:
// each sample goes to the innermost frame in a fairbench package, so a
// module's share includes the runtime and standard-library work it
// calls (allocation, container/heap, map access). Samples with no
// fairbench frame go to runtime (collector, scheduler) or other.
var profiledModules = []string{
	"workload", "packet", "nf", "hw", "sim", "measure", "perf", "testbed",
	"rfc2544", "runner", "stats", "core", "metric", "fairbench", "runtime", "other",
}

func init() {
	for _, m := range profiledModules {
		perLayer = append(perLayer, metricDef{
			name: m + ".cpu_frac", unit: "fraction", better: "lower",
			moves: "wall_s and cpu_s on the workload where it is largest",
			about: "self-time share of the " + m + " module in the CPU profile of traced jobs",
		})
	}
}
