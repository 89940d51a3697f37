// Package trunccast is a golden test corpus for the trunccast analyzer.
package trunccast

import "encoding/binary"

func unguardedLen(b []byte, xs []float64) {
	binary.LittleEndian.PutUint32(b, uint32(len(xs))) // want `\[trunccast\] uint32\(len\(xs\)\) narrows int without a preceding bounds guard`
}

func guardedLen(b []byte, xs []float64) bool {
	if len(xs) > 1<<32-1 {
		return false
	}
	binary.LittleEndian.PutUint32(b, uint32(len(xs))) // guarded above: no finding
	return true
}

func signDrop(b []byte, n int64) {
	binary.LittleEndian.PutUint64(b, uint64(n)) // want `\[trunccast\] uint64\(n\) drops the sign of int64`
}

func guardedSignDrop(b []byte, n int64) {
	if n < 0 {
		panic("negative")
	}
	binary.LittleEndian.PutUint64(b, uint64(n)) // guarded above: no finding
}

func wrapNegative(u uint64) int64 {
	return int64(u) // want `\[trunccast\] int64\(u\) can wrap uint64 negative`
}

func guardedWrap(u uint64) int64 {
	if u > 1<<62 {
		return 0
	}
	return int64(u) // guarded above: no finding
}

func masked(n int) byte {
	return byte(n & 0xff) // mask bounds the value: no finding
}

func constantFits() uint16 {
	return uint16(512) // constant in range: no finding
}

func widening(n int32) int64 {
	return int64(n) // widening preserves every value: no finding
}

func unsignedWidening(n uint32) int {
	return int(n) // uint32 always fits in int64-wide int: no finding
}

func lenToUint64(b []byte, xs []float64) {
	binary.LittleEndian.PutUint64(b, uint64(len(xs))) // len is non-negative and fits: no finding
}

func capToUint64(xs []float64) uint64 {
	return uint64(cap(xs)) // cap is non-negative and fits: no finding
}

func minBounded(u uint64) int {
	return int(min(u, 1<<31)) // min with a fitting constant bounds the value: no finding
}

func minBoundedSigned(n int64) uint64 {
	return uint64(min(n, 1<<31)) // want `\[trunccast\] uint64\(min\(n, 1 << 31\)\) drops the sign of int64`
}

func minConstTooBig(u uint64) uint32 {
	return uint32(min(u, 1<<40)) // want `\[trunccast\] uint32\(min\(u, 1 << 40\)\) narrows uint64`
}

func suppressedReinterpret(n int32) uint32 {
	return uint32(n) //stlint:ignore trunccast two's-complement bit reinterpretation is the wire format
}

func floatNarrow(v float64) float32 {
	return float32(v) // want `\[trunccast\] float32\(v\) silently rounds float64`
}

func floatNarrowConstExact() float32 {
	return float32(1.5) // 1.5 is exactly representable at 32 bits: no finding
}

const inexact64 float64 = 0.1
const exact64 float64 = 1.5

func floatNarrowTypedConstInexact() float32 {
	return float32(inexact64) // want `\[trunccast\] float32\(inexact64\) silently rounds float64`
}

func floatNarrowTypedConstExact() float32 {
	return float32(exact64) // typed constant exactly representable at 32 bits: no finding
}

func floatWiden(v float32) float64 {
	return float64(v) // widening preserves every value: no finding
}

func floatSame(v float32) float32 {
	return float32(v) // same width: no finding
}

func suppressedRounding(v float64) float32 {
	return float32(v) //stlint:ignore trunccast the raw wire format is 32-bit by contract
}

// Type parameters: float32(v) of an F whose type set holds float64 rounds
// in that instantiation, the generic form of floatNarrow.
type float interface{ ~float32 | ~float64 }

func genericNarrow[F float](v F) float32 {
	return float32(v) // want `\[trunccast\] float32\(v\) rounds when F is float64`
}

func genericNarrowEmbedded[G interface{ float }](v G) float32 {
	return float32(v) // want `\[trunccast\] float32\(v\) rounds when G is float64`
}

func genericNarrow32Only[F ~float32](v F) float32 {
	return float32(v) // type set holds no float64: no finding
}

func genericWiden[F float](v F) float64 {
	return float64(v) // widening preserves every value: no finding
}

func genericSuppressed[F float](v F) float32 {
	return float32(v) //stlint:ignore trunccast the raw wire format is 32-bit by contract
}
