// Command fairperf is the simulator's end-to-end benchmark. It runs
// one workload as repeated fixed jobs against the public packages
// (testbed, workload, fairbench.RunSmartNIC), checks every job's
// simulated statistics, and prints the host cost of a job. From the
// repository root:
//
//	bash fairperf/run.sh --workload smartnic-line --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (metrics.go); with
// --trace 1 it prints the per-layer metrics, each with the end-to-end
// metric it should move and the BENCH_baseline.json case it replaces,
// and the layer ledger. Time-valued metrics are scaled to a reference
// host speed measured in the same run (clock.go); the raw figures are
// printed too. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 21, "failed": 0, "metrics": {"wall_s": {"value": 1.2, "unit": "s"}, ...}}
//
// An op (counted in attempted and failed) is one job: a deployment run
// or a replicated verdict. It fails on an error, an accounting
// invariant that does not hold, a fingerprint that differs from the
// run's first job, or — at seed 1 — from golden.json. Any failure
// makes the command exit 1.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// goldenSeed is the seed whose fingerprints golden.json records.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("fairperf", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "smartnic-line", "workload: smartnic-line, state-overload or robust-verdict")
	seed := fl.Uint64("seed", goldenSeed, "workload seed (0 is not a valid seed)")
	seconds := fl.Float64("seconds", 30, "host seconds to spend measuring")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the layer ledger")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seed == 0 || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "fairperf: bad arguments (workload %q, seed %d, seconds %v, trace %d)\n", *name, *seed, *seconds, *trace)
		return 2
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintf(stderr, "fairperf: golden.json: %v\n", err)
		return 1
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(w.procs, runtime.NumCPU())))
	stamp(stdout, w, *seed, *seconds, *trace)
	c := &checker{want: golden[w.name], seed: *seed, log: stderr}
	budget := time.Duration(*seconds * float64(time.Second))
	var (
		metrics map[string]float64
		err     error
	)
	if *trace == 1 {
		metrics, err = traced(stdout, w, *seed, budget, c)
	} else {
		metrics, err = untraced(stdout, w, *seed, budget, c)
	}
	if err != nil {
		fmt.Fprintf(stderr, "fairperf: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	rep := report{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "fairperf: %s: metric %s not measured (%v)\n", w.name, d.name, v)
			return 1
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		note := ""
		if d.moves != "" {
			note = "  # moves " + d.moves
		}
		if d.supersedes != "" {
			note += "; supersedes BENCH_baseline.json " + d.supersedes
		}
		fmt.Fprintf(stdout, "%-34s %-16.6g %-8s%s\n", d.name, v, d.unit, note)
	}
	fmt.Fprintf(stdout, "fingerprint %s (%d of %d jobs failed)\n", c.ref, c.failed, c.attempted)
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "fairperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// checker counts ops and judges each job's outcome: the first job's
// fingerprint becomes the run's reference, every later job must match
// it, and at the golden seed the reference must match golden.json.
type checker struct {
	want              string
	seed              uint64
	ref               string
	attempted, failed int
	log               io.Writer
}

// judge records one op and reports whether it succeeded.
func (c *checker) judge(what string, out outcome, err error) bool {
	c.attempted++
	var why string
	switch {
	case err != nil:
		why = err.Error()
	case out.invariant != nil:
		why = "invariant: " + out.invariant.Error()
	case c.ref == "" && c.seed == goldenSeed && out.fingerprint != c.want:
		why = fmt.Sprintf("fingerprint %s, golden.json has %s for seed %d", out.fingerprint, c.want, goldenSeed)
	case c.ref != "" && out.fingerprint != c.ref:
		why = fmt.Sprintf("fingerprint %s differs from the run's first job (%s)", out.fingerprint, c.ref)
	}
	if why == "" {
		if c.ref == "" {
			c.ref = out.fingerprint
		}
		return true
	}
	c.failed++
	fmt.Fprintf(c.log, "fairperf: %s failed: %s\n", what, why)
	if out.text != "" {
		fmt.Fprintf(c.log, "simulated statistics:\n%s", out.text)
	}
	return false
}

// stamp prints what produced this result: the workload and its
// parameters, the seed, the toolchain, the host's parallelism and the
// code under test.
func stamp(w io.Writer, wl benchWorkload, seed uint64, seconds float64, trace int) {
	fmt.Fprintf(w, "# fairperf workload=%s seed=%d seconds=%g trace=%d\n", wl.name, seed, seconds, trace)
	fmt.Fprintf(w, "# params %s\n", wl.params)
	fmt.Fprintf(w, "# go=%s GOMAXPROCS=%d nproc=%d commit=%s source=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit(), sourceDigest("."))
}

// commit returns the VCS revision the binary was built from, or
// "unknown" when it was built outside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceDigest hashes every Go source and go.mod file under root, so
// a result names the code it measured even without version control.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// Counts bounding each run: set-up is timed in minSetups batches, each
// of as many builds as fill setupBatchSeconds (a descheduled vCPU then
// costs a batch its share, as it does a job, instead of doubling a
// microsecond build); at least minJobs timed jobs run so a median
// exists even when one job outlasts the budget.
const (
	minSetups         = 15
	setupBatchSeconds = 0.02
	minJobs           = 3
	minRefs           = 3 // reference loops timed before set-up
	// minCalSamples is the fewest reference loops the traced run's
	// scale factor rests on; it tops up after its last measurement.
	minCalSamples = 9
)

// setupSeconds returns the median host seconds one wl.setup takes and
// the number of builds timed. An untimed first batch sizes the batches
// and warms the heap; each timed batch starts from a collected heap.
func setupSeconds(wl benchWorkload, seed uint64) (float64, int, error) {
	build := func() error {
		if _, err := wl.setup(seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		return nil
	}
	runtime.GC()
	per := 0
	for t0 := hostNow(); per == 0 || secondsSince(t0) < setupBatchSeconds; per++ {
		if err := build(); err != nil {
			return 0, 0, err
		}
	}
	var batches []float64
	for i := 0; i < minSetups; i++ {
		runtime.GC()
		t0 := hostNow()
		for k := 0; k < per; k++ {
			if err := build(); err != nil {
				return 0, 0, err
			}
		}
		batches = append(batches, secondsSince(t0)/float64(per))
	}
	return median(batches), per * minSetups, nil
}

// untraced measures the end-to-end metrics: set-up time, one untimed
// warm-up job, then timed jobs until the budget is spent.
func untraced(w io.Writer, wl benchWorkload, seed uint64, budget time.Duration, c *checker) (map[string]float64, error) {
	cal := calibrator{procs: wl.procs}
	for i := 0; i < minRefs; i++ {
		cal.sample()
	}
	setup, builds, err := setupSeconds(wl, seed)
	if err != nil {
		return nil, err
	}

	// The warm-up job fills caches and grows the heap. For
	// robust-verdict it is the instrumented replica, which also counts
	// the packets RunSmartNIC simulates.
	var packets uint64
	if wl.name == "robust-verdict" {
		res, tr, err := replicaSmartNIC(verdictOptions(seed))
		out := outcome{}
		if err == nil {
			out = verdictOutcome(res, verdictOptions(seed))
			packets = tr.packets()
		}
		c.judge("warm-up replica", out, err)
	} else {
		j, err := wl.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out, err := j.run()
		c.judge("warm-up job", out, err)
		packets = out.packets
	}

	// Each job is bracketed by reference loops and scaled by the
	// host speed they show: the mean of the loops just before and
	// just after it.
	var samples []repSample
	var walls, cpus []float64
	start := hostNow()
	cal.sample()
	for len(samples) < minJobs || hostNow().Sub(start)+time.Duration(median(walls)*float64(time.Second)) <= budget {
		j, err := wl.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out, s, err := timeJob(j.run)
		if c.judge(fmt.Sprintf("job %d", len(samples)+1), out, err) && packets == 0 {
			packets = out.packets
		}
		cal.sample()
		f := refNominalSeconds / ((cal.samples[len(cal.samples)-2] + cal.samples[len(cal.samples)-1]) / 2)
		samples = append(samples, s)
		walls = append(walls, s.wall*f)
		cpus = append(cpus, s.cpu*f)
	}
	if packets == 0 {
		return nil, fmt.Errorf("no job completed")
	}

	var mallocs, byts uint64
	raw := make([]float64, len(samples))
	for i, s := range samples {
		mallocs += s.mallocs
		byts += s.byts
		raw[i] = s.wall
	}
	n := float64(len(samples))
	wall := median(walls)
	fmt.Fprintf(w, "# %d timed jobs of %d simulated packets; raw wall_s quartiles %.4g %.4g %.4g; raw setup_s %.4g over %d set-ups\n",
		len(samples), packets, quantile(raw, 0.25), median(raw), quantile(raw, 0.75), setup, builds)
	cal.report(w)
	fmt.Fprintf(w, "# each job's times are scaled by the reference loops just before and after it; setup_s by the run's factor\n")
	return map[string]float64{
		"setup_s":             setup * cal.factor(),
		"wall_s":              wall,
		"cpu_s":               median(cpus),
		"sim_pkts_per_s":      float64(packets) / wall,
		"allocs_per_pkt":      float64(mallocs) / (n * float64(packets)),
		"alloc_bytes_per_pkt": float64(byts) / (n * float64(packets)),
		"alloc_mb":            float64(byts) / n / 1e6,
	}, nil
}

func wallsOf(samples []repSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.wall
	}
	return out
}
