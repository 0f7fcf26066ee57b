package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// outcome is what one timed job reports about the simulation it ran.
type outcome struct {
	// packets is the number of simulated packets the job offered.
	packets uint64
	// fingerprint digests the job's simulated statistics.
	fingerprint string
	// text is the canonical rendering the fingerprint hashes.
	text string
	// invariant is non-nil when the simulated statistics break an
	// accounting identity.
	invariant error
}

// repSample is the host cost of one timed job.
type repSample struct {
	wall, cpu     float64 // seconds
	mallocs, byts uint64  // allocations and bytes allocated
	gc            gcCounters
}

// timeJob runs job once under measurement. The heap is collected first
// so every job starts from the same heap state; the collection is not
// timed.
func timeJob(job func() (outcome, error)) (outcome, repSample, error) {
	runtime.GC()
	var before, after runtime.MemStats
	gc0 := readGC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	t0 := hostNow()
	out, err := job()
	wall := secondsSince(t0)
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	gc1 := readGC()
	return out, repSample{
		wall:    wall,
		cpu:     cpu,
		mallocs: after.Mallocs - before.Mallocs,
		byts:    after.TotalAlloc - before.TotalAlloc,
		gc:      gcCounters{cycles: gc1.cycles - gc0.cycles, gcCPU: gc1.gcCPU - gc0.gcCPU, totCPU: gc1.totCPU - gc0.totCPU},
	}, err
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for an empty slice. The harness keeps its own order
// statistics rather than internal/stats's, so a change to the code
// under test cannot change how its timings are summarized.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// heapPeak samples the bytes held by live and not-yet-swept heap
// objects every period and keeps the largest value seen. Reading
// runtime/metrics does not stop the world, so sampling leaves the
// measured work almost undisturbed.
type heapPeak struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64 // written by the sampler, read after stop returns
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

func startHeapPeak(period time.Duration) *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: heapObjectsMetric}}
		t := time.NewTicker(period) //fairlint:allow wallclock paces host-side heap sampling; never reaches simulated statistics
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit and returns the
// peak in bytes.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}

// gcCounters snapshots the collector's cycle count and CPU time.
type gcCounters struct {
	cycles        uint64
	gcCPU, totCPU float64
}

var gcMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcCounters {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcCounters{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totCPU: s[2].Value.Float64()}
}
