// Package num holds the floating-point type constraint shared by the
// precision-generic pipeline stages, plus the slice conversion helpers
// used at precision boundaries. The pipeline runs end-to-end in either
// float32 or float64; float64 is the reference oracle and float32 the
// bandwidth-halving fast path, so every stage that touches coefficient
// slabs is generic over this constraint.
package num

import "unsafe"

// Float constrains a type parameter to the two supported coefficient
// precisions.
type Float interface{ ~float32 | ~float64 }

// SampleBytes returns the in-memory size of one sample of F (4 or 8).
// gc stencils float32 and float64 separately and folds the size to a
// constant in each, so a branch on it costs nothing inside a hot loop.
func SampleBytes[F Float]() int { return int(unsafe.Sizeof(F(0))) }

// Is32 reports whether F is the single-precision instantiation. Like
// SampleBytes it folds to a constant per instantiation, so generic bodies
// may branch on it per element.
func Is32[F Float]() bool { return unsafe.Sizeof(F(0)) == 4 }

// Convert copies src into dst with a per-element value conversion
// (correctly rounded when narrowing). The slices must have equal length.
func Convert[D, S Float](dst []D, src []S) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	for i, v := range src {
		dst[i] = D(v)
	}
}

// Widen returns a freshly allocated []float64 copy of src.
func Widen[F Float](src []F) []float64 {
	out := make([]float64, len(src))
	for i, v := range src {
		out[i] = float64(v)
	}
	return out
}

// Narrow returns a freshly allocated []float32 copy of src (correctly
// rounded per element).
func Narrow[F Float](src []F) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}
