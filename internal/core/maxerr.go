package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"stwave/internal/compress"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/obs"
	"stwave/internal/par"
	"stwave/internal/scratch"
	"stwave/internal/transform"
	"stwave/internal/wavelet"
)

// Error-bounded thresholding (Options.MaxErr), one of the verified modes
// (verify.go): each coefficient is dropped when its magnitude falls under
// its band's threshold, and a round that misses halves the violating
// class's threshold.

// maxVerifyRounds bounds the verify loop of both verified modes. Each
// MaxErr round halves a violating threshold, so 24 rounds cover a 2^24
// tightening range before the bound is declared unreachable.
const maxVerifyRounds = 24

// supportMargin is the half-width, in cells at a coefficient's own
// level, of the spatial support attributed to it for ROI
// classification: CDF 9/7's 9-tap filter reaches 4 samples either side,
// so any coefficient whose (conservatively widened) support touches the
// ROI box is held to the ROI bound.
const supportMargin = 4

// roiClassBit marks an ROI coefficient class; the low bits hold its depth.
const roiClassBit = 0x80

// axisSupport returns, for one axis of a levels-deep transform whose
// coordinates lie in the level groups group (levelIndex's per-axis
// table, so a coordinate's band depth is levels-group), the
// fine-coordinate support interval [lo, hi) of the coefficient along
// that axis. A Mallat coordinate in the level-(m+1) detail band at band
// offset xb sits over spatial position (2*xb+1)*2^m; an approximation
// coordinate x sits over x*2^levels. The margin widens the interval by
// the lifting filter's reach so ROI classification errs toward the
// tighter bound.
func axisSupport(group []int, levels int) (lo, hi []int) {
	n := len(group)
	lo = make([]int, n)
	hi = make([]int, n)
	shift := func(v, s int) int {
		// Coordinates are bounded by grid.MaxAxis (2^20); a shift past
		// 21 bits already covers any axis, so cap it to keep the
		// arithmetic in range for forged 64-level headers.
		if s > 21 {
			s = 21
		}
		return v << s
	}
	for x, g := range group {
		m := levels - g
		center, reach := shift(x, levels), shift(supportMargin+1, levels)
		if m < levels {
			xb := x - wavelet.ApproxLenAfter(n, m+1)
			center, reach = shift(2*xb+1, m), shift(supportMargin+1, m+1)
		}
		lo[x] = center - reach
		hi[x] = center + reach + 1
	}
	return lo, hi
}

// classifySpatial labels every grid point of the Mallat layout with its
// band depth (levels minus its level group, so the approximation band
// gets depth L) in the low bits, and the ROI class bit when the
// coefficient's spatial support intersects roi.
func classifySpatial(d grid.Dims, levels int, roi *ROIBounds) []uint8 {
	li := newLevelIndex(d, levels)
	depth := make([]uint8, levels+1) // band depth of each level group
	for m := 0; m <= levels; m++ {
		depth[levels-m] = uint8(m)
	}
	lox, hix := axisSupport(li.lx, levels)
	loy, hiy := axisSupport(li.ly, levels)
	loz, hiz := axisSupport(li.lz, levels)

	class := make([]uint8, d.Len())
	idx := 0
	for z := 0; z < d.Nz; z++ {
		zHit := roi != nil && hiz[z] > roi.Z0 && loz[z] < roi.Z1
		for y := 0; y < d.Ny; y++ {
			yHit := zHit && hiy[y] > roi.Y0 && loy[y] < roi.Y1
			row := li.lrow[z*d.Ny+y]
			for x := 0; x < d.Nx; x++ {
				cl := depth[max(li.lx[x], row)]
				if yHit && hix[x] > roi.X0 && lox[x] < roi.X1 {
					cl |= roiClassBit
				}
				class[idx] = cl
				idx++
			}
		}
	}
	return class
}

// temporalDepths returns the temporal band depth of each slice index
// after a levels-deep in-place 1D pyramid over t slices: detail indices
// created at level l get depth l, the final approximation prefix gets
// the full depth. Each level overwrites the prefix it transforms, so the
// deepest level touching an index names its band.
func temporalDepths(t, levels int) []int {
	ed := make([]int, t)
	for l, n := range wavelet.BandLengths(t, levels) {
		for i := range ed[:n] {
			ed[i] = l + 1
		}
	}
	return ed
}

// ErrBoundUnreachable reports an error-bounded compress whose bound the
// tighten-and-verify loop could not meet, typically because it lies
// under the codec's quantization floor.
var ErrBoundUnreachable = errors.New("core: error bound unreachable")

// maxErrOf is Compress's error-bounded tail: the threshold-encode-verify
// loop over the transformed coefficients in coeffs (only read), each
// iteration encoding exactly as the window will be stored. raw holds the
// samples the bound is measured against, at the window's own precision.
func maxErrOf[F num.Float](ctx context.Context, c *Compressor, raw, coeffs *grid.WindowOf[F], spec transform.Spec, workers int) (*CompressedWindow, error) {
	dims := raw.Dims
	datas := sliceData(coeffs)
	t, s := len(datas), dims.Len()
	levels := spec.SpatialLevels
	roi := c.opts.ROI
	if roi != nil && (roi.X1 > dims.Nx || roi.Y1 > dims.Ny || roi.Z1 > dims.Nz) {
		return nil, fmt.Errorf("core: ROI box [%d,%d)x[%d,%d)x[%d,%d) exceeds grid %v",
			roi.X0, roi.X1, roi.Y0, roi.Y1, roi.Z0, roi.Z1, dims)
	}
	class := classifySpatial(dims, levels, roi)
	et := temporalDepths(t, spec.TemporalLevels)

	// gain[e] = sqrt(2)^e: the amplitude a unit sample contributes to a
	// band with combined spatial+temporal depth e, used to translate the
	// sample-space bound into per-band coefficient thresholds. The
	// verification pass below is authoritative; the weights only steer
	// how quickly it converges.
	maxExp := 3*levels + spec.TemporalLevels + 1
	gain := make([]float64, maxExp+1)
	for e := range gain {
		gain[e] = math.Pow(math.Sqrt2, float64(e))
	}

	_, sp := obs.Start(ctx, "core.threshold_maxerr")
	defer sp.End()
	start := time.Now()
	cw := newCompressedWindow(c, coeffs, spec)
	tauBG := c.opts.MaxErr / 2
	tauROI := 0.0
	if roi != nil {
		tauROI = roi.MaxErr / 2
	}
	var bgMax, roiMax float64
	roiTightenings := 0
	for round := 0; round < maxVerifyRounds; round++ {
		// Keep everything over the current per-class thresholds.
		survs, idx, val := bandSurvivors(datas, class, et, gain, tauBG, tauROI, workers)
		e, err := verifyRound(cw, survs, idx, val, raw, spec, workers)
		if err != nil {
			return nil, err
		}
		bgMax, roiMax = e.bg, e.roi
		bgOK := bgMax <= c.opts.MaxErr
		roiOK := roi == nil || roiMax <= roi.MaxErr
		if bgOK && roiOK {
			cw.MaxErrAchieved = bgMax
			cw.ROIMaxErrAchieved = roiMax
			rawBytes := int64(t*s) * int64(num.SampleBytes[F]())
			observeThroughput("compress.threshold_mb_per_s", rawBytes, time.Since(start))
			finishWindow(cw, rawBytes)
			return cw, nil
		}
		if !bgOK {
			tauBG /= 2
		}
		if !roiOK {
			tauROI /= 2
			roiTightenings++
			// If several ROI tightenings have not closed the gap, the
			// residual comes from background-class coefficients whose
			// support spills into the box (the classification margin is
			// conservative, not exact) — tighten those too.
			if roiTightenings >= 4 {
				tauBG /= 2
			}
		}
		if (tauBG > 0 && tauBG < math.SmallestNonzeroFloat64*1e16) ||
			(tauROI > 0 && tauROI < math.SmallestNonzeroFloat64*1e16) {
			break
		}
	}
	return nil, fmt.Errorf("%w for codec %s (achieved background %g > %g or ROI %g): "+
		"the codec's quantization floor may exceed the requested bound", ErrBoundUnreachable, cw.Codec().Name(), bgMax, c.opts.MaxErr, roiMax)
}

// bandSurvivors collects, per slice, every coefficient that fails its
// class threshold |v| <= tau·gain[3·depth+te] (NaN fails every
// comparison and is kept) as ascending survivor lists carved from pooled
// slabs, which the caller returns once the lists are encoded. Like
// compress.Nonzeros it makes two read-only passes, on up to workers
// goroutines: count each slice's survivors, then fill its region.
func bandSurvivors[F num.Float](datas [][]F, class []uint8, et []int, gain []float64, tauBG, tauROI float64, workers int) ([]compress.Survivors, []int, []float64) {
	t := len(datas)
	limits := make([][1 << 8]float64, t) // per slice, indexed by class
	offs := make([]int, t+1)
	par.For(t, workers, 1, func(start, end int) {
		for i := start; i < end; i++ {
			lim := &limits[i]
			for d := 0; 3*d+et[i] < len(gain); d++ {
				lim[d] = tauBG * gain[3*d+et[i]]
				lim[d|roiClassBit] = tauROI * gain[3*d+et[i]]
			}
			n := 0
			for j, v := range datas[i] {
				if !(math.Abs(float64(v)) <= lim[class[j]]) {
					n++
				}
			}
			offs[i+1] = n
		}
	})
	for i := 0; i < t; i++ {
		offs[i+1] += offs[i]
	}
	idx, val := scratch.Ints(offs[t]), scratch.Floats(offs[t])
	survs := make([]compress.Survivors, t)
	par.For(t, workers, 1, func(start, end int) {
		for i := start; i < end; i++ {
			lim := &limits[i]
			lo, o := offs[i], offs[i]
			for j, v := range datas[i] {
				if !(math.Abs(float64(v)) <= lim[class[j]]) {
					idx[o], val[o] = j, float64(v)
					o++
				}
			}
			survs[i] = compress.Survivors{Total: len(datas[i]), Idx: idx[lo:o:o], Val: val[lo:o:o]}
		}
	})
	return survs, idx, val
}
