package core

import (
	"fmt"
	"math"

	"stwave/internal/compress"
	"stwave/internal/grid"
	"stwave/internal/par"
	"stwave/internal/scratch"
	"stwave/internal/transform"
)

// Error-bounded thresholding (Options.MaxErr): instead of ranking
// coefficients to a ratio budget, each coefficient is dropped when its
// magnitude falls under a per-band threshold, and the resulting bound is
// then *verified* on the exact encoded stream — codec roundtrip followed
// by the inverse transform, compared sample-by-sample against the
// original window. Verification is what makes the bound honest: wavelet
// band gains, accumulation across dropped coefficients, and codec
// quantization (the sparse backend stores float32 values, the entropy
// backend quantizes) all land in the measured error, so the loop
// tightens the violating class's threshold and re-verifies until the
// bound holds. A bound below the codec's quantization floor is reported
// as a typed error rather than silently missed.

// maxErrIters bounds the tighten-and-verify loop; each iteration halves
// a violating threshold, so 24 iterations cover a 2^24 tightening range
// before the bound is declared unreachable.
const maxErrIters = 24

// supportMargin is the half-width, in cells at a coefficient's own
// level, of the spatial support attributed to it for ROI
// classification: CDF 9/7's 9-tap filter reaches 4 samples either side,
// so any coefficient whose (conservatively widened) support touches the
// ROI box is held to the ROI bound.
const supportMargin = 4

const (
	depthMask   = 0x7f
	roiClassBit = 0x80
)

// axisBands returns, for one axis of length n under a levels-deep
// transform, the per-coordinate band depth (deepest approximation cube
// containing the coordinate) and the fine-coordinate support interval
// [lo, hi) of the coefficient along that axis. A Mallat coordinate in
// the level-(m+1) detail band at band offset xb sits over spatial
// position (2*xb+1)*2^m; an approximation coordinate x sits over
// x*2^levels. The margin widens the interval by the lifting filter's
// reach so ROI classification errs toward the tighter bound.
func axisBands(n, levels int) (depth []int, lo, hi []int) {
	cube := make([]int, levels+1)
	cube[0] = n
	for m := 1; m <= levels; m++ {
		cube[m] = (cube[m-1] + 1) / 2
	}
	depth = make([]int, n)
	lo = make([]int, n)
	hi = make([]int, n)
	shift := func(v, s int) int {
		// Coordinates are bounded by maxHeaderAxis (2^20); a shift past
		// 21 bits already covers any axis, so cap it to keep the
		// arithmetic in range for forged 64-level headers.
		if s > 21 {
			s = 21
		}
		return v << s
	}
	for x := 0; x < n; x++ {
		m := 0
		for m < levels && x < cube[m+1] {
			m++
		}
		depth[x] = m
		var center, reach int
		if m == levels {
			center = shift(x, levels)
			reach = shift(supportMargin+1, levels)
		} else {
			xb := x - cube[m+1]
			center = shift(2*xb+1, m)
			reach = shift(supportMargin+1, m+1)
		}
		lo[x] = center - reach
		hi[x] = center + reach + 1
	}
	return depth, lo, hi
}

// classifySpatial labels every grid point of the Mallat layout with its
// band depth (the deepest approximation cube containing it; the
// approximation band itself gets depth L) in the low bits, and the ROI
// class bit when the coefficient's spatial support intersects roi.
func classifySpatial(d grid.Dims, levels int, roi *ROIBounds) []uint8 {
	dx, lox, hix := axisBands(d.Nx, levels)
	dy, loy, hiy := axisBands(d.Ny, levels)
	dz, loz, hiz := axisBands(d.Nz, levels)

	class := make([]uint8, d.Len())
	idx := 0
	for z := 0; z < d.Nz; z++ {
		zHit := roi != nil && hiz[z] > roi.Z0 && loz[z] < roi.Z1
		for y := 0; y < d.Ny; y++ {
			yHit := zHit && hiy[y] > roi.Y0 && loy[y] < roi.Y1
			for x := 0; x < d.Nx; x++ {
				m := dx[x]
				if dy[y] < m {
					m = dy[y]
				}
				if dz[z] < m {
					m = dz[z]
				}
				cl := uint8(m)
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
// the full depth. The pyramid lengths mirror the temporal transform's
// ((n+1)/2 halving).
func temporalDepths(t, levels int) []int {
	ed := make([]int, t)
	n := t
	depth := 0
	for l := 0; l < levels && n >= 2; l++ {
		h := (n + 1) / 2
		for i := h; i < n; i++ {
			ed[i] = l + 1
		}
		n = h
		depth = l + 1
	}
	for i := 0; i < n && depth > 0; i++ {
		ed[i] = depth
	}
	return ed
}

// thresholdMaxErr runs the error-bounded threshold-encode-verify loop
// over the transformed coefficients in coeffs, filling cw's block layout
// (progressive or slice-major per Options) with the verified encoding
// and recording the achieved error maxima. orig is the untransformed
// window the bound is measured against; coeffs is consumed as scratch.
func (c *Compressor) thresholdMaxErr(orig, coeffs *grid.Window, spec transform.Spec, workers int, cw *CompressedWindow) error {
	dims := orig.Dims
	datas := make([][]float64, coeffs.Len())
	for i, f := range coeffs.Slices {
		datas[i] = f.Data
	}
	t, s := len(datas), dims.Len()
	levels := spec.SpatialLevels
	roi := c.opts.ROI
	if roi != nil && (roi.X1 > dims.Nx || roi.Y1 > dims.Ny || roi.Z1 > dims.Nz) {
		return fmt.Errorf("core: ROI box [%d,%d)x[%d,%d)x[%d,%d) exceeds grid %v",
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

	saved := scratch.Floats(t * s)
	defer scratch.PutFloats(saved)
	for i, d := range datas {
		copy(saved[i*s:(i+1)*s], d)
	}
	vslab := scratch.Floats(t * s)
	defer scratch.PutFloats(vslab)
	vfields := make([]grid.Field3D, t)
	vslices := make([]*grid.Field3D, t)
	for i := range vfields {
		vfields[i] = grid.Field3D{Dims: dims, Data: vslab[i*s : (i+1)*s : (i+1)*s]}
		vslices[i] = &vfields[i]
	}
	vw := &grid.Window{Dims: dims, Slices: vslices, Times: orig.Times}

	cdc := c.opts.codec()
	tauBG := c.opts.MaxErr / 2
	tauROI := 0.0
	if roi != nil {
		tauROI = roi.MaxErr / 2
	}
	var bgMax, roiMax float64
	roiTightenings := 0
	for iter := 0; iter < maxErrIters; iter++ {
		// Restore the full coefficient set and drop everything under the
		// current per-class thresholds.
		par.For(t, workers, 1, func(start, end int) {
			for i := start; i < end; i++ {
				d := datas[i]
				copy(d, saved[i*s:(i+1)*s])
				te := et[i]
				for j, v := range d {
					cl := class[j]
					tau := tauBG
					if cl&roiClassBit != 0 {
						tau = tauROI
					}
					if math.Abs(v) <= tau*gain[3*int(cl&depthMask)+te] {
						d[j] = 0
					}
				}
			}
		})

		// Encode exactly as the window will be stored, then decode the
		// encoded blocks back: the verified stream is the written stream.
		blocks, levelBlocks, err := encodeSurvivors(cdc, compress.Nonzeros(datas, workers), dims, levels, c.opts.Progressive, workers)
		if err != nil {
			return err
		}
		tmp := &CompressedWindow{Dims: dims, Opts: c.opts, SpatialLevels: levels, Blocks: blocks, LevelBlocks: levelBlocks}
		if err := decodeInto(tmp, vslices, levels, workers); err != nil {
			return err
		}
		if err := transform.Inverse4D(vw, spec); err != nil {
			return fmt.Errorf("core: verification inverse transform: %w", err)
		}

		bgMax, roiMax = measureMaxErr(orig, vw, roi, workers)
		bgOK := bgMax <= c.opts.MaxErr
		roiOK := roi == nil || roiMax <= roi.MaxErr
		if bgOK && roiOK {
			cw.Blocks = blocks
			cw.LevelBlocks = levelBlocks
			cw.MaxErrAchieved = bgMax
			cw.ROIMaxErrAchieved = roiMax
			return nil
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
	return fmt.Errorf("core: error bound unreachable for codec %s (achieved background %g > %g or ROI %g): "+
		"the codec's quantization floor may exceed the requested bound", cdc.Name(), bgMax, c.opts.MaxErr, roiMax)
}

// measureMaxErr returns the maximum absolute sample error outside and
// inside the ROI box (roiMax is zero when roi is nil).
func measureMaxErr(orig, recon *grid.Window, roi *ROIBounds, workers int) (bgMax, roiMax float64) {
	t := len(orig.Slices)
	d := orig.Dims
	bg := make([]float64, t)
	ri := make([]float64, t)
	par.For(t, workers, 1, func(start, end int) {
		for i := start; i < end; i++ {
			a, b := orig.Slices[i].Data, recon.Slices[i].Data
			var mbg, mroi float64
			idx := 0
			for z := 0; z < d.Nz; z++ {
				for y := 0; y < d.Ny; y++ {
					inRow := roi != nil && z >= roi.Z0 && z < roi.Z1 && y >= roi.Y0 && y < roi.Y1
					for x := 0; x < d.Nx; x++ {
						e := math.Abs(a[idx] - b[idx])
						if inRow && x >= roi.X0 && x < roi.X1 {
							if e > mroi {
								mroi = e
							}
						} else if e > mbg {
							mbg = e
						}
						idx++
					}
				}
			}
			bg[i], ri[i] = mbg, mroi
		}
	})
	for i := 0; i < t; i++ {
		if bg[i] > bgMax {
			bgMax = bg[i]
		}
		if ri[i] > roiMax {
			roiMax = ri[i]
		}
	}
	return bgMax, roiMax
}
