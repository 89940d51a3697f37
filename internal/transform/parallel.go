// Package transform implements the multi-dimensional wavelet transforms of
// the paper's Section IV-A: the 3D "non-standard decomposition" applied per
// time slice (one pass along X, then Y, then Z per level, repeated on the
// shrinking approximation cube), and the temporal 1D transform applied at
// every grid point of a time window.
//
// Parallelism follows a single-owner worker-budget model (see DESIGN.md):
// the 4D entry points resolve Spec.Workers exactly once and split the
// budget between window-level slice parallelism and the per-slice passes
// via par.Split, so nested loops can never oversubscribe the machine. The
// per-axis passes and the temporal step are cache-blocked: tiles of
// neighbouring lines (or grid-point time series) are transposed into a
// contiguous scratch slab and transformed together by the blocked lifting
// kernels in internal/wavelet.
package transform

import (
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/par"
)

// forEachSlice runs fn over every slice of the window, splitting the
// worker budget once: outer workers cooperate on slices and each call
// receives the inner per-slice budget. With a single outer worker the
// loop degenerates to a plain sequential walk with early error return and
// no goroutines or bookkeeping allocations.
func forEachSlice[F num.Float](slices []*grid.Field3DOf[F], budget int, fn func(i int, f *grid.Field3DOf[F], inner int) error) error {
	outer, inner := par.Split(budget, len(slices))
	if outer <= 1 {
		for i, f := range slices {
			if err := fn(i, f, inner); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(slices))
	par.For(len(slices), outer, 1, func(start, end int) {
		for i := start; i < end; i++ {
			errs[i] = fn(i, slices[i], inner)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
