package entropy

import (
	"fmt"
	"math"
)

// Params configures the quantize → entropy-code stage. The zero value is
// not valid; start from DefaultParams.
type Params struct {
	// BitDepth is the number of magnitude bits per quantized value before
	// the escape path kicks in, and — when ErrorBound is zero — also sets
	// the quantization step per block: step = maxMag / (2^BitDepth - 1),
	// so the largest coefficient of the block uses all BitDepth bits and
	// the absolute error is bounded by step/2. Must be in [2, 31].
	BitDepth int
	// ErrorBound, when > 0, fixes the absolute quantization error bound
	// directly: step = 2*ErrorBound regardless of the block's magnitude
	// range. Values needing more than BitDepth magnitude bits take the
	// exponential-Golomb escape path, so a generous bound stays honest for
	// outliers instead of clamping them.
	ErrorBound float64
	// Lossless stores the exact float32 bits of every retained value (the
	// same precision the sparse backend keeps), so the entropy backend
	// round-trips bit-identically to it. Gap coding of the significance
	// map still applies, so lossless blocks remain smaller than sparse
	// ones at high ratios.
	Lossless bool
}

// DefaultParams returns the shipped configuration: 16 magnitude bits with
// a per-block adaptive step. The quantization SNR (~6 dB per bit) sits far
// below thresholding error at every ratio the paper studies, so reported
// PSNR matches the sparse backend while values cost ~2 bytes instead of 4.
func DefaultParams() Params {
	return Params{BitDepth: 16}
}

// Validate reports the first configuration problem found.
func (p Params) Validate() error {
	if p.Lossless {
		return nil
	}
	if p.BitDepth < 2 || p.BitDepth > 31 {
		return fmt.Errorf("entropy: bit depth must be in [2, 31], got %d", p.BitDepth)
	}
	if p.ErrorBound < 0 || math.IsNaN(p.ErrorBound) || math.IsInf(p.ErrorBound, 0) {
		return fmt.Errorf("entropy: invalid error bound %g", p.ErrorBound)
	}
	return nil
}

// Quantizer maps coefficients to integer levels with a fixed uniform step.
// The zero Step means lossless (no quantization at all).
type Quantizer struct {
	Step float64
}

// quantMagCap bounds |level| so that magnitude arithmetic (negation,
// +1 offsets in the escape path) can never overflow int64/uint64 even on
// adversarial inputs. 2^62 levels is unreachably far beyond any useful
// bit depth.
const quantMagCap = int64(1) << 62

// newQuantizer resolves the step for a block whose largest coefficient
// magnitude is maxMag. Lossless params yield the zero (pass-through)
// quantizer.
func (p Params) newQuantizer(maxMag float64) Quantizer {
	if p.Lossless {
		return Quantizer{}
	}
	if p.ErrorBound > 0 {
		return Quantizer{Step: min(2*p.ErrorBound, math.MaxFloat64)}.finite(maxMag)
	}
	levels := float64(uint64(1)<<uint(p.BitDepth) - 1) //stlint:ignore trunccast BitDepth is validated to [2, 31] before any quantizer is built
	if maxMag <= 0 || math.IsInf(maxMag, 0) || math.IsNaN(maxMag) {
		// Degenerate block (all zeros, or garbage magnitudes): any positive
		// step works, every value escapes or quantizes safely.
		return Quantizer{Step: 1}
	}
	step := maxMag / levels
	if step <= 0 || math.IsInf(step, 0) {
		// maxMag in the subnormal range can underflow the division; fall
		// back to the smallest positive normal step.
		step = math.SmallestNonzeroFloat64 * levels
	}
	return Quantizer{Step: step}.finite(maxMag)
}

// finite lowers q's step, if need be, until the level of maxMag (and so
// every smaller level) dequantizes finite: near math.MaxFloat64 the
// rounded level times the step can overflow to ±Inf. A smaller step only
// tightens the error bound. A non-finite maxMag leaves q as it is.
func (q Quantizer) finite(maxMag float64) Quantizer {
	top := q.Quantize(maxMag)
	if math.IsInf(maxMag, 0) || !math.IsInf(q.Dequantize(top), 0) {
		return q
	}
	q.Step = maxMag / float64(top)
	for math.IsInf(q.Dequantize(top), 0) {
		q.Step = math.Nextafter(q.Step, 0)
	}
	return q
}

// Quantize maps v to its level: round(v/Step), saturated to ±quantMagCap.
// NaN maps to level 0. Deterministic for any input.
func (q Quantizer) Quantize(v float64) int64 {
	x := v / q.Step
	if math.IsNaN(x) {
		return 0
	}
	if x >= float64(quantMagCap) {
		return quantMagCap
	}
	if x <= -float64(quantMagCap) {
		return -quantMagCap
	}
	return int64(math.Round(x))
}

// Dequantize maps a level back to its reconstruction value level*Step.
func (q Quantizer) Dequantize(level int64) float64 {
	return float64(level) * q.Step
}
