// Package par provides the pipeline's shared data-parallel loop. Every
// stage of the compression hot path — per-slice 3D transforms, temporal
// tiles, threshold chunks, sparse codec chunks — distributes work through
// For, so the worker budget is expressed the same way everywhere and a
// caller that already split the budget can hand a stage workers == 1 to
// keep it strictly sequential (no goroutines spawned at all).
//
// The old transform-internal helper used a fixed "n < 64 stays
// sequential" cutoff, which mis-served both extremes: a loop over 10
// temporal tiles that each transform a megabyte stayed serial, while a
// loop over 64 two-element rows would happily spawn goroutines. For
// instead takes a grain — the minimum number of items worth one task —
// so the caller states per-item weight explicitly: heavy loops pass
// grain 1, trivial loops pass something like 64.
package par

import (
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: values < 1 mean GOMAXPROCS,
// the CPUs the Go scheduler will actually run goroutines on.
func Workers(requested int) int {
	if requested >= 1 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// Split divides a worker budget between an outer loop of n items and the
// stages each item runs internally: outer workers cooperate on the items
// and every item's stage receives inner workers. outer*inner never
// exceeds Workers(budget), so a nested For cannot oversubscribe — the
// budget is honored once, at the split.
func Split(budget, n int) (outer, inner int) {
	w := Workers(budget)
	if n < 1 {
		n = 1
	}
	outer = w
	if outer > n {
		outer = n
	}
	inner = w / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// For splits [0, n) into contiguous chunks and runs fn(start, end) on each
// from at most `workers` goroutines. grain is the minimum number of items
// that justify one task: the loop stays sequential (fn(0, n) on the calling
// goroutine) whenever workers <= 1 or n <= grain, and no task is created
// for fewer than grain items. grain < 1 is treated as 1.
func For(n, workers, grain int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers = Workers(workers)
	if maxTasks := (n + grain - 1) / grain; workers > maxTasks {
		workers = maxTasks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for start := chunk; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			fn(s, e)
		}(start, end)
	}
	// The calling goroutine takes the first chunk instead of idling in Wait.
	fn(0, chunk)
	wg.Wait()
}
