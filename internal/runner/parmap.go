package runner

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Map runs fn(0), ..., fn(n-1) on up to jobs concurrent workers and
// returns the results in index order, so output never depends on
// scheduling. Each call is panic-isolated (a panic surfaces as an
// error wrapping ErrPanic). On failure Map returns the error of the
// lowest failing index — the same error a serial run would return —
// though a parallel run may have evaluated later indices a serial run
// would have skipped.
//
// Map is how the deterministic experiment drivers parallelize
// replicate trials without owning any concurrency themselves: fairvet
// confines goroutines to internal/runner, and the per-trial seeds are
// pure functions of (base seed, trial index), so trial results are
// independent of both worker count and completion order.
func Map[T any](jobs, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			v, err := mapCall(i, fn)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = mapCall(i, fn)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mapCall invokes fn(i) with panic isolation.
func mapCall[T any](i int, fn func(i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, fmt.Errorf("%w: index %d: %v\n%s", ErrPanic, i, r, debug.Stack())
		}
	}()
	return fn(i)
}
