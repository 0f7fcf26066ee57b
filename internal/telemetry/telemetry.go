// Package telemetry is the wall-clock observability layer for
// everything outside the deterministic simulation boundary. Where
// internal/obs traces virtual time inside the sim — byte-identical
// per seed, part of the artifact surface — telemetry records what the
// harness itself did in real time: when each runner cell started and
// finished, how long retries backed off, where the worker pool sat
// idle, how the heap and goroutine count moved while a sweep ran.
//
// The two layers never mix. Telemetry output (telemetry.jsonl and the
// summary/Gantt artifacts rendered from it) is machine- and
// run-dependent by nature, so it is excluded from byte-identity
// guarantees exactly like the runner's journal, and telemetry must
// never feed back into execution: attaching a Recorder cannot change
// a single artifact byte. fairvet's wallclock rule allowlists this
// package (alongside internal/runner) and continues to flag wall
// clock reads everywhere else.
//
// A Recorder writes an append-only JSONL stream: a self-identifying
// header, one event per runner state transition (via the
// runner.Observer adapter), periodic runtime samples (goroutines,
// heap, GC pause totals, pool occupancy, counter rates), and a
// closing run-end event. The reporter in this package turns the
// stream back into a run summary and a cell-execution Gantt chart.
package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FileName is the canonical telemetry stream filename inside a run's
// output directory.
const FileName = "telemetry.jsonl"

// Format tags the header line so a telemetry file is self-identifying.
const Format = "fairbench-telemetry/v1"

// ErrFormat is returned when a parsed file is not a telemetry stream.
var ErrFormat = errors.New("telemetry: not a telemetry stream")

// IsTelemetryFile reports whether an output-directory entry belongs to
// the telemetry layer (the JSONL stream and the summary/Gantt
// artifacts rendered from it). Byte-identity comparisons exclude these
// names the same way they exclude the runner's journal: both record
// wall-clock execution history, not deterministic output.
func IsTelemetryFile(name string) bool {
	return name == FileName || strings.HasPrefix(name, "telemetry-")
}

// Header is the first line of a telemetry stream.
type Header struct {
	Telemetry   string `json:"telemetry"`
	Label       string `json:"label,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Start       string `json:"start"` // RFC 3339, wall clock
	Jobs        int    `json:"jobs,omitempty"`
	Cells       int    `json:"cells,omitempty"`
}

// Event kinds appearing in the stream. Cell-scoped events carry the
// cell name; worker is -1 when no pool worker is involved.
const (
	EvCellStart  = "cell-start"  // a worker begins an attempt
	EvCellError  = "cell-error"  // an attempt failed (kind: panic/timeout/error)
	EvRetryWait  = "retry-wait"  // backoff sleep before the next attempt
	EvCellFinish = "cell-finish" // terminal state (status, attempts, wall_ms)
	EvResumeSkip = "resume-skip" // resume found the cell complete
	EvCutoff     = "cutoff"      // run deadline left the cell unstarted
	EvPoolShrink = "pool-shrink" // repeated panics retired a worker
	EvSample     = "sample"      // periodic runtime/pool sample
	EvRunEnd     = "run-end"     // stream closed cleanly
)

// Event is one line of the stream after the header. Unused fields are
// omitted; TMS is milliseconds since the header's start time.
type Event struct {
	Ev      string  `json:"ev"`
	TMS     float64 `json:"t_ms"`
	Cell    string  `json:"cell,omitempty"`
	Worker  int     `json:"worker,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	// Kind classifies cell-error events: "panic", "timeout" or "error".
	Kind  string `json:"kind,omitempty"`
	Error string `json:"error,omitempty"`
	// WaitMS is the backoff duration of a retry-wait event.
	WaitMS float64 `json:"wait_ms,omitempty"`
	// Terminal cell state (cell-finish events).
	Status    string  `json:"status,omitempty"`
	Attempts  int     `json:"attempts,omitempty"`
	WallMS    float64 `json:"wall_ms,omitempty"`
	Artifacts int     `json:"artifacts,omitempty"`
	// Workers is the pool width after a pool-shrink event.
	Workers int `json:"workers,omitempty"`
	// Sample payload (sample events).
	Goroutines int                `json:"goroutines,omitempty"`
	HeapBytes  uint64             `json:"heap_bytes,omitempty"`
	GCPauseMS  float64            `json:"gc_pause_ms,omitempty"`
	NumGC      uint32             `json:"num_gc,omitempty"`
	Busy       int                `json:"workers_busy,omitempty"`
	CellsDone  int                `json:"cells_done,omitempty"`
	Counters   map[string]int64   `json:"counters,omitempty"`
	Rates      map[string]float64 `json:"rates,omitempty"`
}

// Options configures a Recorder.
type Options struct {
	// Clock supplies timestamps (nil = the wall clock). Tests inject a
	// FakeClock so nothing sleeps.
	Clock Clock
	// Label names the run in the header (e.g. "fairfigs sweep").
	Label string
	// Fingerprint ties the stream to the option set of the run it
	// observed (the runner's resume fingerprint).
	Fingerprint string
	// Jobs and Cells size the run for the header and the reporter's
	// utilization math.
	Jobs, Cells int
}

// Recorder writes a telemetry stream. All methods are safe for
// concurrent use by pool workers; write errors are sticky and
// surfaced by Close, so instrumentation call sites stay unconditional.
type Recorder struct {
	clock Clock
	start time.Time
	jobs  int

	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	err    error

	// Pool occupancy and progress, readable by the sampler.
	busy      atomic.Int64
	cellsDone atomic.Int64

	countersMu sync.Mutex
	counters   map[string]*Counter
	lastSample struct {
		t      time.Time
		valid  bool
		counts map[string]int64
	}
}

// New writes the stream to w (which the Recorder does not close).
func New(w io.Writer, o Options) *Recorder {
	if o.Clock == nil {
		o.Clock = Wall
	}
	r := &Recorder{
		clock:    o.Clock,
		start:    o.Clock.Now(),
		jobs:     o.Jobs,
		w:        w,
		counters: map[string]*Counter{},
	}
	r.emit(Header{
		Telemetry:   Format,
		Label:       o.Label,
		Fingerprint: o.Fingerprint,
		Start:       r.start.UTC().Format(time.RFC3339Nano),
		Jobs:        o.Jobs,
		Cells:       o.Cells,
	})
	return r
}

// Create opens path for appending a fresh stream (truncating any
// previous one) and returns a Recorder that closes it on Close.
func Create(path string, o Options) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: create %s: %w", path, err)
	}
	r := New(f, o)
	r.closer = f
	return r, nil
}

// now returns milliseconds since the stream started.
func (r *Recorder) now() float64 {
	return float64(r.clock.Now().Sub(r.start)) / float64(time.Millisecond)
}

// emit marshals one line under the lock. The first write error sticks;
// later emits become no-ops so a full disk degrades telemetry, never
// the run.
func (r *Recorder) emit(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	data = append(data, '\n')
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if _, err := r.w.Write(data); err != nil {
		r.err = fmt.Errorf("telemetry: write: %w", err)
	}
}

// Event appends an arbitrary event, stamping TMS.
func (r *Recorder) Event(ev Event) {
	ev.TMS = r.now()
	r.emit(ev)
}

// Span opens a named wall-clock span (recorded as a cell-start with no
// worker) and returns a closure that ends it: status "ok" on a nil
// error, "failed" otherwise. It is the single-run shape of the runner
// cell events, used by commands that do one thing (fairsim) rather
// than a sweep.
func (r *Recorder) Span(name string) func(error) {
	start := r.clock.Now()
	r.Event(Event{Ev: EvCellStart, Cell: name, Worker: -1})
	return func(err error) {
		ev := Event{
			Ev:       EvCellFinish,
			Cell:     name,
			Worker:   -1,
			Status:   "ok",
			Attempts: 1,
			WallMS:   float64(r.clock.Now().Sub(start)) / float64(time.Millisecond),
		}
		if err != nil {
			ev.Status = "failed"
			ev.Error = err.Error()
		}
		r.Event(ev)
	}
}

// Close emits the run-end event, flushes, closes the underlying file
// (when the Recorder opened it) and reports the first write error.
func (r *Recorder) Close() error {
	r.Event(Event{Ev: EvRunEnd, CellsDone: int(r.cellsDone.Load())})
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closer != nil {
		if cerr := r.closer.Close(); cerr != nil && r.err == nil {
			r.err = fmt.Errorf("telemetry: close: %w", cerr)
		}
		r.closer = nil
	}
	return r.err
}

// Counter is a named atomic counter whose value and rate the sampler
// publishes. Cells bump counters for whatever throughput they want
// tracked (sim events, packets); the zero counter-set costs nothing.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter returns the named counter, creating it on first use.
func (r *Recorder) Counter(name string) *Counter {
	r.countersMu.Lock()
	defer r.countersMu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}
