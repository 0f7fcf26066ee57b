// Package runner is the fault-tolerant parallel executor for sweeps of
// artifact-producing experiment cells. It hardens long runs against
// the ways they die — a panicking cell is isolated and recorded
// instead of aborting the sweep, per-cell and whole-run wall-clock
// deadlines bound execution, transient failures are retried with
// capped-exponential backoff and a fresh attempt number (so the caller
// derives a fresh, non-aliasing seed), cells that exhaust their
// retries are quarantined rather than fatal, and a pool that keeps
// hitting panics shrinks gracefully — while keeping the output
// deterministic: cells fan out across a bounded worker pool, but
// results are merged in canonical cell order, every artifact write is
// atomic (temp file + rename — a killed run never leaves a truncated
// SVG or CSV), and completed cells land in an append-only fsync'd
// JSONL journal that lets Resume replay exactly the missing work. The
// merged output directory is byte-identical at any Jobs value, and a
// crashed-then-resumed sweep converges to the same bytes as an
// uninterrupted one; internal/runner/chaos proves both under injected
// faults.
//
// This is also the one package fairvet permits concurrency in: the
// deterministic simulation kernel stays single-threaded, and the
// experiment drivers parallelize replicate trials through Map instead
// of owning goroutines.
package runner

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path so that readers never observe a
// partial file: the bytes land in a same-directory temp file which is
// fsynced and then renamed over the target. On any error the temp file
// is removed and the previous target (if any) is left untouched.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("runner: atomic write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("runner: atomic write %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runner: atomic write %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runner: atomic write %s: %w", path, err)
	}
	return nil
}
