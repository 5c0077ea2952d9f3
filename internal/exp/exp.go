// Package exp is the deterministic parallel job pool behind the
// experiment matrix and the crash-boundary sweeps. The paper's
// evaluation is a large product of independent simulation cells —
// mechanism × structure × thread count × cached/uncached — and each cell
// owns a private simulated machine, so cells can execute on as many OS
// threads as the host offers. Determinism is preserved by construction:
// results are merged in cell-index order, never in completion order, so
// any worker count produces byte-identical output.
package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: zero or negative means one
// worker per available CPU (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// CellError labels a failed cell with its index in the job list, so an
// aggregated error reports exactly which cells of a matrix failed.
type CellError struct {
	Index int
	Err   error
}

func (e *CellError) Error() string { return fmt.Sprintf("cell %d: %v", e.Index, e.Err) }

func (e *CellError) Unwrap() error { return e.Err }

// Map executes fn(i) for every i in [0, n) across workers goroutines
// (Workers semantics: ≤0 means GOMAXPROCS) and returns the results in
// index order. Failures never abort the matrix: every cell still runs,
// failed cells leave the zero value in their result slot, and the
// returned error joins each failure as a *CellError (errors.Join; nil
// when every cell succeeded).
//
// Cells are claimed from a shared counter, so scheduling order is
// nondeterministic — fn must not depend on execution order, only on i.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	errs := make([]error, n)
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = &CellError{Index: i, Err: err}
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}
