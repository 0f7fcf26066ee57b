package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// hostNow reads the host's monotonic clock. Measuring host time is what
// this program is for; no reading reaches a simulated statistic.
func hostNow() time.Time {
	return time.Now() //fairlint:allow wallclock the benchmark measures host time; readings never reach simulated statistics
}

// secondsSince returns the host seconds elapsed since t.
func secondsSince(t time.Time) float64 { return hostNow().Sub(t).Seconds() }

// On a shared host the speed of a run drifts with its neighbours' load
// while staying nearly steady within the run: on a 2-vCPU Xeon VM
// (go1.24.0) the same job's median moved by a fifth or more between
// runs minutes apart, and a reference loop timed in each run moved with
// it. Every run therefore times a fixed reference loop next to its
// jobs, and reports each time-valued metric scaled to the speed at
// which that loop takes refNominalSeconds. The loop uses only the
// standard library, so a change to the simulator never changes it.
// Raw figures and the scale factor are printed with every result.
const refNominalSeconds = 0.1

// refSink keeps the reference loop's result live.
var refSink uint64

// referenceLoop is fixed work shaped like the simulator's: hashing into
// a map, small allocations the collector must reclaim, and a sort.
func referenceLoop() uint64 {
	m := make(map[uint64]uint64)
	x := uint64(1)
	var n uint64
	for i := 0; i < 300000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>44] += x
		b := make([]byte, 64+int(x>>60))
		n += uint64(len(b))
	}
	s := make([]uint64, 0, len(m))
	for k, v := range m {
		s = append(s, k^v)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return n + s[len(s)/2]
}

// calibrator collects reference-loop timings taken through a run.
type calibrator struct {
	// procs copies of the loop run at once, one per thread the
	// workload uses, so the reference sees the contention its jobs see.
	procs   int
	samples []float64
}

// sample times one round of the reference loop.
func (c *calibrator) sample() {
	sums := make([]uint64, max(c.procs, 1))
	var wg sync.WaitGroup
	t0 := hostNow()
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = referenceLoop()
		}(i)
	}
	wg.Wait()
	c.samples = append(c.samples, secondsSince(t0))
	refSink += sums[0]
}

// factor is the scale from this run's host speed to the reference
// speed: below 1 when the host ran slow.
func (c *calibrator) factor() float64 { return refNominalSeconds / median(c.samples) }

func (c *calibrator) report(w io.Writer) {
	fmt.Fprintf(w, "# host speed: reference loop median %.4g s of %d (nominal %g s), factor %.4f\n",
		median(c.samples), len(c.samples), refNominalSeconds, c.factor())
}

// scale converts the time-valued metrics among defs to the reference
// speed: durations are multiplied by the factor, rates divided.
func (c *calibrator) scale(m map[string]float64, defs []metricDef) {
	f := c.factor()
	for _, d := range defs {
		switch d.unit {
		case "s", "ms", "ns":
			m[d.name] *= f
		case "1/s":
			m[d.name] /= f
		}
	}
}
