package core

import (
	"context"
	"fmt"
	"math"

	"stwave/internal/grid"
	"stwave/internal/metrics"
)

// CompressToTarget finds the most aggressive compression ratio whose
// reconstruction NRMSE stays at or below targetNRMSE, by bisection over the
// ratio between minRatio and maxRatio. It returns the compressed window at
// the chosen ratio along with the achieved error.
//
// This inverts the paper's workflow — scientists often know the error they
// can tolerate, not the ratio that produces it. The search costs
// O(log(maxRatio/minRatio)) compress+decompress cycles, each run under
// ctx, so a traced caller sees every probe's compress and decompress
// spans.
func CompressToTarget(ctx context.Context, opts Options, w *grid.Window, targetNRMSE, minRatio, maxRatio float64) (*CompressedWindow, float64, error) {
	if targetNRMSE <= 0 || math.IsNaN(targetNRMSE) {
		return nil, 0, fmt.Errorf("core: target NRMSE must be positive, got %g", targetNRMSE)
	}
	if minRatio < 1 || maxRatio < minRatio {
		return nil, 0, fmt.Errorf("core: invalid ratio range [%g, %g]", minRatio, maxRatio)
	}

	tryRatio := func(ratio float64) (*CompressedWindow, float64, error) {
		o := opts
		o.Ratio = ratio
		comp, err := New(o)
		if err != nil {
			return nil, 0, err
		}
		cw, err := Compress(ctx, comp, w, Copy)
		if err != nil {
			return nil, 0, err
		}
		recon, err := DecompressCtx(ctx, cw)
		if err != nil {
			return nil, 0, err
		}
		ac := metrics.NewAccumulator()
		for i := range w.Slices {
			if err := ac.Add(w.Slices[i].Data, recon.Slices[i].Data); err != nil {
				return nil, 0, err
			}
		}
		return cw, ac.NRMSE(), nil
	}

	// If even the loosest ratio misses the target, report it (callers may
	// accept it or store raw).
	bestCW, bestErr, err := tryRatio(minRatio)
	if err != nil {
		return nil, 0, err
	}
	if bestErr > targetNRMSE {
		return bestCW, bestErr, fmt.Errorf("core: NRMSE %.4g at minimum ratio %g exceeds target %.4g", bestErr, minRatio, targetNRMSE)
	}

	// Bisect in log-ratio space: error grows monotonically with ratio for
	// wavelet thresholding in practice.
	lo, hi := math.Log2(minRatio), math.Log2(maxRatio)
	for iter := 0; iter < 12 && hi-lo > 0.05; iter++ {
		mid := (lo + hi) / 2
		cw, e, err := tryRatio(math.Exp2(mid))
		if err != nil {
			return nil, 0, err
		}
		if e <= targetNRMSE {
			bestCW, bestErr = cw, e
			lo = mid
		} else {
			hi = mid
		}
	}
	return bestCW, bestErr, nil
}
