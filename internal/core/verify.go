package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"stwave/internal/compress"
	"stwave/internal/fbits"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/obs"
	"stwave/internal/par"
	"stwave/internal/scratch"
	"stwave/internal/transform"
)

// The verified modes, MaxErr and TargetNRMSE, pick survivors from a bound
// on the reconstruction error instead of a ratio, and check every pick on
// the exact encoded stream (verifyRound): codec round trip, inverse
// transform, and a sample-by-sample comparison with the window's samples.
// That is what makes a bound honest: band gains, accumulation across
// dropped coefficients and codec quantization all land in the measured
// error. A bound under the codec's quantization floor is reported as
// ErrBoundUnreachable, never silently missed. The modes differ in how
// they pick, and in how a miss steers the next round.

// sampleErr is one round's reconstruction error: the largest absolute
// sample error outside and inside the ROI box (zero without one), and the
// sum of squared errors over the window.
type sampleErr struct {
	bg, roi, sse float64
}

// sliceData returns the sample slices of w's time slices, in order.
func sliceData[F num.Float](w *grid.WindowOf[F]) [][]F {
	datas := make([][]F, w.Len())
	for i, f := range w.Slices {
		datas[i] = f.Data
	}
	return datas
}

// verifyRound is one verified round: it encodes survs into cw exactly as
// the window will be stored, hands the selection slabs back, decodes the
// blocks into a pooled window, inverts it and measures it against raw.
func verifyRound[F num.Float](cw *CompressedWindow, survs []compress.Survivors, idx []int, val []float64,
	raw *grid.WindowOf[F], spec transform.Spec, workers int) (sampleErr, error) {
	groups, err := encodeSurvivors(cw.Codec(), survs, cw.Dims, cw.groupLevels(), workers)
	scratch.PutInts(idx)
	scratch.PutFloats(val)
	if err != nil {
		return sampleErr{}, err
	}
	cw.Groups = groups
	slab := scratch.FloatsOf[F](raw.TotalSamples())
	defer scratch.PutFloatsOf(slab)
	vw := carveWindow(raw.Dims, raw.Len(), slab, raw.Times)
	if err := decodeInto(cw, vw.Slices, spec.SpatialLevels, workers); err != nil {
		return sampleErr{}, err
	}
	if err := transform.Inverse4D(vw, spec); err != nil {
		return sampleErr{}, fmt.Errorf("core: verification inverse transform: %w", err)
	}
	obs.Default().Counter("core.verify_round_trips_total").Add(1)
	return measure(raw, vw, cw.Opts.ROI, workers), nil
}

// measure compares recon with orig in one pass, taking each difference
// after widening both samples to float64. A NaN error is skipped by the
// maxima. Per-slice results merge in slice order, independent of workers.
func measure[F num.Float](orig, recon *grid.WindowOf[F], roi *ROIBounds, workers int) sampleErr {
	d := orig.Dims
	per := make([]sampleErr, orig.Len())
	par.For(len(per), workers, 1, func(start, end int) {
		for i := start; i < end; i++ {
			a, b, s := orig.Slices[i].Data, recon.Slices[i].Data, &per[i]
			idx := 0
			for z := 0; z < d.Nz; z++ {
				for y := 0; y < d.Ny; y++ {
					inRow := roi != nil && z >= roi.Z0 && z < roi.Z1 && y >= roi.Y0 && y < roi.Y1
					for x := 0; x < d.Nx; x++ {
						diff := float64(a[idx]) - float64(b[idx])
						s.sse += float64(diff * diff) // unfused, so every target sums alike
						if e := math.Abs(diff); inRow && x >= roi.X0 && x < roi.X1 {
							if e > s.roi {
								s.roi = e
							}
						} else if e > s.bg {
							s.bg = e
						}
						idx++
					}
				}
			}
		}
	})
	var w sampleErr
	for _, s := range per {
		w = sampleErr{max(w.bg, s.bg), max(w.roi, s.roi), w.sse + s.sse}
	}
	return w
}

// retryGain is the power a TargetNRMSE retry raises target ÷ measured to.
// Measured ÷ predicted grows with k, so the plain ratio lands just over
// the target: a third round on 9 of EXPERIMENTS.md's 18 windows, none at
// 1.1.
const retryGain = 1.1

// targetOf is Compress's TargetNRMSE tail over the coefficients in coeffs
// (only read), measured against raw. The window's dropped-energy curve
// predicts the NRMSE of keeping the k largest as √(E(k)/N) ÷ range, the
// transform being close to orthogonal. The smallest k predicted to meet
// the target is verified; the prediction runs low, so while a round
// misses, the target the curve is read at is scaled by (target ÷
// measured)^retryGain and a larger k is picked. Survivors are the ratio
// mode's, and the window records its k as Ratio = total/k.
func targetOf[F num.Float](ctx context.Context, c *Compressor, raw, coeffs *grid.WindowOf[F], spec transform.Spec, workers int) (*CompressedWindow, error) {
	_, sp := obs.Start(ctx, "core.threshold_target")
	defer sp.End()
	start := time.Now()
	datas, n := sliceData(coeffs), coeffs.TotalSamples()
	curve, sel := compress.EnergyOf(datas), 1
	if c.opts.Mode == Spatial3D {
		sel = len(datas) // one keep count per slice, predicted as a joint one
	}
	total := n / sel
	lo, hi := math.Inf(1), math.Inf(-1) // in float64: a float32 Range would round
	for _, f := range raw.Slices {
		a, b := f.MinMax()
		lo, hi = min(lo, float64(a)), max(hi, float64(b))
	}
	cw := newCompressedWindow(c, coeffs, spec)
	goal, got, k := c.opts.TargetNRMSE, math.NaN(), 0
	for round := 0; round < maxVerifyRounds && k < total; round++ {
		budget := goal * (hi - lo) * (goal * (hi - lo)) * float64(n)
		k = min(total, max(k+1, (curve.Keep(budget)+sel-1)/sel))
		idx, val := scratch.Ints(k*sel), scratch.Floats(k*sel)
		e, err := verifyRound(cw, selectOf(c.opts, datas, k, workers, idx, val), idx, val, raw, spec, workers)
		if err != nil {
			return nil, err
		}
		if got = 0.0; !fbits.Zero(e.sse) { // an exact reconstruction meets any target
			got = math.Sqrt(e.sse/float64(n)) / (hi - lo)
		}
		if got <= c.opts.TargetNRMSE {
			cw.Opts.Ratio = float64(total) / float64(k)
			for kc, _ := compress.KeepCount(total, cw.Opts.Ratio); kc < k; kc, _ = compress.KeepCount(total, cw.Opts.Ratio) {
				cw.Opts.Ratio = math.Nextafter(cw.Opts.Ratio, 1) // KeepCount must give k back
			}
			obs.Default().Gauge("core.target_nrmse_max").SetMax(got)
			rawBytes := int64(n) * int64(num.SampleBytes[F]())
			observeThroughput("compress.threshold_mb_per_s", rawBytes, time.Since(start))
			finishWindow(cw, rawBytes)
			return cw, nil
		}
		if !(got <= math.MaxFloat64) { // NaN samples, or error over a zero range: no k helps
			break
		}
		goal *= math.Pow(c.opts.TargetNRMSE/got, retryGain)
	}
	return nil, fmt.Errorf("%w: NRMSE %g > target %g keeping %d of %d coefficients", ErrBoundUnreachable, got, c.opts.TargetNRMSE, k, total)
}
