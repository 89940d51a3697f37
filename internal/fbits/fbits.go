// Package fbits provides exact-bit floating-point comparisons for the
// places where the pipeline's contract really is bitwise: coefficient
// thresholding ties, configured-ratio lookups, and reconstruction checks.
// The stlint floateq analyzer rejects raw == / != on floats because a
// careless exact compare silently diverges after a lossy round-trip;
// routing the deliberate ones through this package makes the intent
// visible and the semantics explicit.
//
// All three predicates are defined on IEEE-754 bit patterns, never on
// float comparisons, so the package itself contains no operation the
// analyzer would flag.
package fbits

import (
	"math"

	"stwave/internal/num"
)

const (
	expMask    = 0x7ff << 52
	signMask   = 1 << 63
	signMask32 = 1 << 31
)

// Zero reports whether x is exactly zero of either sign. It is the
// bit-level equivalent of x == 0: true for +0 and -0, false for
// everything else including subnormals and NaN. The precision branch
// folds away per instantiation, so the float32 test reads 32-bit patterns.
func Zero[F num.Float](x F) bool {
	if num.Is32[F]() {
		return math.Float32bits(float32(x))&^uint32(signMask32) == 0
	}
	return math.Float64bits(float64(x))&^signMask == 0
}

// Same reports whether a and b carry identical bit patterns. This is
// stricter than ==: Same(NaN, NaN) is true for identical NaN payloads,
// and Same(+0, -0) is false. Use it when "the bytes round-tripped"
// is the property under test.
func Same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// Eq reports whether a == b under IEEE-754 rules, implemented with bit
// tests: the two zeros equal each other, NaN equals nothing, and any
// other pair is equal exactly when bit-identical. Use it where exact
// equality is the contract — matching a configured compression ratio,
// detecting a threshold tie — so the comparison is visibly deliberate.
func Eq(a, b float64) bool {
	ba, bb := math.Float64bits(a), math.Float64bits(b)
	if ba&^signMask == 0 && bb&^signMask == 0 {
		return true
	}
	return ba == bb && !isNaNBits(ba)
}

// isNaNBits reports whether the bit pattern encodes a NaN: all-ones
// exponent with a non-zero mantissa.
func isNaNBits(b uint64) bool {
	return b&expMask == expMask && b&(1<<52-1) != 0
}
