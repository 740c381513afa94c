// Package sweep runs independent simulation jobs on parallel host
// workers.
//
// This package is deliberately OUTSIDE fsvet's determinism set
// (internal/vet registers it as exempt, as it does the shard engine),
// so it may use goroutines. That is safe for
// reproducibility because sweep never touches the inside of a
// running simulation: it only orchestrates *whole* runs, each of
// which builds its own sim.Loop and seeds its own PRNGs, shares no
// mutable state with its siblings, and writes its result to a slot
// identified by job index. Host scheduling can therefore change only
// the order in which jobs finish — never any simulated outcome — and
// a parallel sweep is byte-identical to a serial one (asserted under
// `go test -race ./internal/sweep`).
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel runs sweep jobs on up to Workers host goroutines. It
// implements experiment.Runner. Workers <= 0 means one worker per
// host CPU.
type Parallel struct {
	Workers int
}

// Run executes job(0..n-1), returning when all have finished. Jobs
// are handed out in index order from a shared counter, so the active
// set at any moment is a contiguous-ish window — long jobs (high core
// counts) overlap with short ones instead of queueing behind them.
func (p Parallel) Run(n int, job func(i int)) {
	w := p.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// Budget divides host workers between nested parallelism layers:
// when each sweep job itself runs perJob goroutines (a sharded
// simulation engine), the outer sweep must shrink so the product
// stays within the host budget instead of oversubscribing —
// oversubscription doesn't change any result (both layers are
// deterministic), it just thrashes the scheduler. Returns the outer
// worker count, at least 1.
func Budget(hostWorkers, perJob int) int {
	if perJob < 1 {
		perJob = 1
	}
	if hostWorkers <= perJob {
		return 1
	}
	return hostWorkers / perJob
}

// Map runs f(0..n-1) on parallel workers and returns the results in
// index order — the functional form of Parallel.Run for callers that
// want a result slice rather than writing into captured state.
func Map[T any](workers, n int, f func(i int) T) []T {
	out := make([]T, n)
	Parallel{Workers: workers}.Run(n, func(i int) {
		out[i] = f(i)
	})
	return out
}
