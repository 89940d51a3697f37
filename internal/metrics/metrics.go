// Package metrics implements the point-wise error measurements used by the
// paper's evaluation: root mean square error and L-infinity norm, plus their
// range-normalized variants ("error values are normalized by the range of
// the data", Section V-B) and PSNR.
package metrics

import (
	"errors"
	"math"

	"stwave/internal/fbits"
)

// ErrLengthMismatch is returned when the two sample sets differ in length.
var ErrLengthMismatch = errors.New("metrics: sample sets have different lengths")

// RMSE returns sqrt(mean((a-b)^2)).
func RMSE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	if len(a) == 0 {
		return 0, nil
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a))), nil
}

// Range returns max(a) - min(a); 0 for empty input.
func Range(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range a {
		if math.IsNaN(v) {
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return max - min
}

// NRMSE returns RMSE(a,b) normalized by the range of a (the original data).
// A zero-range original yields 0 if the data match exactly and +Inf
// otherwise.
func NRMSE(orig, recon []float64) (float64, error) {
	r, err := RMSE(orig, recon)
	if err != nil {
		return 0, err
	}
	return normalize(r, Range(orig)), nil
}

func normalize(err, rng float64) float64 {
	if fbits.Zero(rng) {
		if fbits.Zero(err) {
			return 0
		}
		return math.Inf(1)
	}
	return err / rng
}

// PSNR returns the peak signal-to-noise ratio in dB, using the range of the
// original data as peak. Identical inputs yield +Inf.
func PSNR(orig, recon []float64) (float64, error) {
	r, err := RMSE(orig, recon)
	if err != nil {
		return 0, err
	}
	if fbits.Zero(r) {
		return math.Inf(1), nil
	}
	rng := Range(orig)
	if fbits.Zero(rng) {
		return math.Inf(-1), nil
	}
	return 20 * math.Log10(rng/r), nil
}

// Accumulator aggregates point-wise errors across multiple slices so that
// NRMSE/L-inf can be reported for a whole time span with a single global
// normalization, the way the paper reports per-test numbers.
type Accumulator struct {
	sumSq  float64
	maxAbs float64
	n      int64
	min    float64
	max    float64
	empty  bool
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{min: math.Inf(1), max: math.Inf(-1), empty: true}
}

// Add accumulates one original/reconstructed slice pair.
func (ac *Accumulator) Add(orig, recon []float64) error {
	if len(orig) != len(recon) {
		return ErrLengthMismatch
	}
	for i := range orig {
		d := orig[i] - recon[i]
		ac.sumSq += d * d
		if a := math.Abs(d); a > ac.maxAbs {
			ac.maxAbs = a
		}
		v := orig[i]
		if v < ac.min {
			ac.min = v
		}
		if v > ac.max {
			ac.max = v
		}
	}
	ac.n += int64(len(orig))
	ac.empty = ac.empty && len(orig) == 0
	return nil
}

// RMSE returns the aggregate root mean square error.
func (ac *Accumulator) RMSE() float64 {
	if ac.n == 0 {
		return 0
	}
	return math.Sqrt(ac.sumSq / float64(ac.n))
}

// LInf returns the aggregate maximum absolute deviation.
func (ac *Accumulator) LInf() float64 { return ac.maxAbs }

// DataRange returns the range of all original samples seen.
func (ac *Accumulator) DataRange() float64 {
	if ac.empty || ac.n == 0 {
		return 0
	}
	return ac.max - ac.min
}

// NRMSE returns RMSE normalized by the global original-data range.
func (ac *Accumulator) NRMSE() float64 { return normalize(ac.RMSE(), ac.DataRange()) }

// NLInf returns LInf normalized by the global original-data range.
func (ac *Accumulator) NLInf() float64 { return normalize(ac.LInf(), ac.DataRange()) }

// PSNR returns the aggregate peak signal-to-noise ratio in dB,
// -20*log10(NRMSE). Zero aggregate error yields +Inf; a zero data range
// with nonzero error yields -Inf.
func (ac *Accumulator) PSNR() float64 {
	n := ac.NRMSE()
	if fbits.Zero(n) {
		return math.Inf(1)
	}
	if math.IsInf(n, 1) {
		return math.Inf(-1)
	}
	return -20 * math.Log10(n)
}
