package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"

	"fairbench/internal/testbed"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, d := range endToEnd {
		if !(d.bound > 0 && d.bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, d := range perLayer {
		if d.moves == "" {
			t.Errorf("%s: no prediction of the end-to-end metric it moves", d.name)
		}
	}
}

// TestBenchmarkJSONMatchesTables checks that BENCHMARK.json lists the
// workloads and metrics this program reports, with the same units,
// directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json %q (why %q), program %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, program %s %s %s %v", i, m, d.name, d.unit, d.better, d.bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, program %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
}

// TestFingerprintGateFires runs the smartnic-line job at the golden
// seed and checks that it passes the gate, then that perturbed copies
// of one run's statistics fail it.
func TestFingerprintGateFires(t *testing.T) {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	j, err := setupLine(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	out, err := j.run()
	if c := (&checker{want: golden["smartnic-line"], seed: goldenSeed, log: &log}); !c.judge("job", out, err) {
		t.Fatalf("golden job failed the gate: %s", log.String())
	}

	j, err = setupLine(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	r := j.(*packetJob).runs[0]
	res, _, err := r.simulate()
	if err != nil {
		t.Fatal(err)
	}
	sn, ct := r.d.SmartNIC(), testbed.ConntrackStatsOf(r.d)
	c := &checker{seed: goldenSeed + 1, log: &log}
	if !c.judge("run", packetOutcome(res, sn, nil, ct), nil) {
		t.Fatalf("unperturbed run failed the gate: %s", log.String())
	}
	changed := res
	changed.LatencyP99Us *= 1.0001
	if c.judge("perturbed latency", packetOutcome(changed, sn, nil, ct), nil) {
		t.Error("a changed p99 latency passed the fingerprint gate")
	}
	unbalanced := res
	unbalanced.Processed.Packets--
	out = packetOutcome(unbalanced, sn, nil, ct)
	if out.invariant == nil || c.judge("unbalanced", out, nil) {
		t.Error("a packet missing from the accounting passed the gate")
	}
	if c.attempted != 3 || c.failed != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2", c.attempted, c.failed)
	}
}

func TestGoldenOtherWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a state-overload job and a replicated verdict")
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"state-overload", "robust-verdict"} {
		w, _ := findWorkload(name)
		j, err := w.setup(goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		out, err := j.run()
		c := &checker{want: golden[name], seed: goldenSeed, log: &bytes.Buffer{}}
		if !c.judge(name, out, err) {
			t.Errorf("%s: fingerprint %s, golden %s (err %v, invariant %v)", name, out.fingerprint, golden[name], err, out.invariant)
		}
	}
}

// TestSeedChangesInputs checks that the seed argument reaches every
// workload's generated inputs.
func TestSeedChangesInputs(t *testing.T) {
	first := func(seed uint64) string {
		g, err := testbed.E6Workload(seed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < 64; i++ {
			pk, err := g.Next()
			if err != nil {
				t.Fatal(err)
			}
			b.Write(pk.Frame)
		}
		return b.String()
	}
	if first(1) == first(2) {
		t.Error("smartnic-line: seeds 1 and 2 generate the same packets")
	}
	if first(3) != first(3) {
		t.Error("smartnic-line: one seed generates different packets")
	}
	scenario := func(seed uint64) string {
		sg, err := overloadScenarioGen(seed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, at := range scenarioTimes(sg, 64) {
			pk, class, err := sg.NextAt(at)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(pk.Frame)
			b.WriteString(string(class))
		}
		return b.String()
	}
	if scenario(1) == scenario(2) {
		t.Error("state-overload: seeds 1 and 2 generate the same packets")
	}
	if o := verdictOptions(7); o.Seed != 7 {
		t.Errorf("robust-verdict: seed 7 gives options seed %d", o.Seed)
	}
}

func TestModuleOf(t *testing.T) {
	for sym, want := range map[string]string{
		"fairbench/internal/sim.(*Sim).Run":                 "sim",
		"fairbench/internal/runner.Map[...]":                "runner",
		"fairbench/internal/runner/chaos.Run":               "runner",
		"fairbench.RunSmartNIC":                             "fairbench",
		"fairbench.RunSmartNIC.func1":                       "fairbench",
		"main.timeJob":                                      "",
		"container/heap.Pop":                                "",
		"runtime.mallocgc":                                  "",
		"fairbench/internal/hw.(*SmartNIC).Offload.func1":   "hw",
		"fairbench/internal/workload.(*Generator).NextCopy": "workload",
	} {
		if got := moduleOf(sym); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestModuleSharesDecodesProfile profiles the kernel micro-benchmark
// and checks the decoded profile puts more samples in the sim module
// than in any other fairbench module. (Under the race detector many
// samples land in its runtime, outside every module.)
func TestModuleSharesDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	timeKernel(64, 1<<22, 1)
	pprof.StopCPUProfile()
	shares := map[string]float64{}
	if err := moduleShares(buf.Bytes(), shares); err != nil {
		t.Fatal(err)
	}
	for mod, v := range shares {
		if mod != "sim" && mod != "runtime" && mod != "other" && v >= shares["sim"] {
			t.Errorf("profile shares %v: want sim ahead of every other module", shares)
		}
	}
	if shares["sim"] == 0 {
		t.Errorf("profile shares %v: no samples in sim", shares)
	}
}

func TestKernelAllocsPerEvent(t *testing.T) {
	r := timeKernel(16, 1<<16, 1)
	if r[1] < 0.99 || r[1] > 1.01 {
		t.Errorf("allocs per event = %v, want 1 (one *event per At)", r[1])
	}
}

// TestRunPrintsContract runs the command for a moment and checks the
// last line of its output against the result contract.
func TestRunPrintsContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several smartnic-line jobs")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "smartnic-line", "--seed", "1", "--seconds", "0.1", "--trace", trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 || len(rep.Metrics) != len(defs) {
			t.Errorf("trace %s: report %+v", trace, rep)
		}
		for _, d := range defs {
			if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s: %+v", trace, d.name, m)
			}
		}
		if trace == "0" {
			for _, d := range endToEnd {
				if rep.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, rep.Metrics[d.name].Value)
				}
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--seed", "0"},
		{"--seconds", "-1"},
		{"--trace", "2"},
	} {
		if code := run(args, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
