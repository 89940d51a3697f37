//go:build !purego

package wavelet

import (
	"unsafe"

	"stwave/internal/num"
)

// The AVX2 bodies of the four row primitives that run once per sample
// row live in rows_amd64.s. Each lifts lanes [0, n) of its row, n a
// positive multiple of its group (8 float64 or 16 float32 lanes), and
// rounds every lane exactly as the Go loop that finishes the row does.

//go:noescape
func addSumRowF64(x, a, b *float64, n int, c float64)

//go:noescape
func addSumRowF32(x, a, b *float32, n int, c float32)

//go:noescape
func scaleRowF64(d, x *float64, n int, s float64)

//go:noescape
func scaleRowF32(d, x *float32, n int, s float32)

//go:noescape
func addSumScaleRowF64(d, x, a, b *float64, n int, c, s float64)

//go:noescape
func addSumScaleRowF32(d, x, a, b *float32, n int, c, s float32)

//go:noescape
func scaleAddSumRowF64(d, x, a, b *float64, n int, s, c float64)

//go:noescape
func scaleAddSumRowF32(d, x, a, b *float32, n int, s, c float32)

// useAVX2 selects the AVX2 bodies. It is num.HaveAVX2, fixed at package
// init; only tests turn it off, to run the Go loops against the same inputs.
var useAVX2 = num.HaveAVX2

// vecLen is how many leading lanes of an n-lane row at precision F the
// AVX2 bodies take: n rounded down to a whole group, 0 with them off.
func vecLen[F num.Float](n int) int {
	if !useAVX2 {
		return 0
	}
	return n &^ (64/int(unsafe.Sizeof(F(0))) - 1)
}

// p64 and p32 reinterpret a row of the instantiated precision as the
// assembly's own; the caller has checked the size.
func p64[F num.Float](s []F) *float64 { return (*float64)(unsafe.Pointer(unsafe.SliceData(s))) }
func p32[F num.Float](s []F) *float32 { return (*float32)(unsafe.Pointer(unsafe.SliceData(s))) }

// addSumRowVec runs addSumRow's AVX2 body over a prefix of x and returns
// its length. a and b are at least as long as x.
func addSumRowVec[F num.Float](x, a, b []F, c F) int {
	n := vecLen[F](len(x))
	if n > 0 && unsafe.Sizeof(c) == 4 {
		addSumRowF32(p32(x), p32(a), p32(b), n, float32(c))
	} else if n > 0 {
		addSumRowF64(p64(x), p64(a), p64(b), n, float64(c))
	}
	return n
}

// scaleRowVec is addSumRowVec for scaleRow.
func scaleRowVec[F num.Float](d, x []F, s F) int {
	n := vecLen[F](len(d))
	if n > 0 && unsafe.Sizeof(s) == 4 {
		scaleRowF32(p32(d), p32(x), n, float32(s))
	} else if n > 0 {
		scaleRowF64(p64(d), p64(x), n, float64(s))
	}
	return n
}

// addSumScaleRowVec is addSumRowVec for addSumScaleRow.
func addSumScaleRowVec[F num.Float](d, x, a, b []F, c, s F) int {
	n := vecLen[F](len(d))
	if n > 0 && unsafe.Sizeof(c) == 4 {
		addSumScaleRowF32(p32(d), p32(x), p32(a), p32(b), n, float32(c), float32(s))
	} else if n > 0 {
		addSumScaleRowF64(p64(d), p64(x), p64(a), p64(b), n, float64(c), float64(s))
	}
	return n
}

// scaleAddSumRowVec is addSumRowVec for scaleAddSumRow.
func scaleAddSumRowVec[F num.Float](d, x, a, b []F, s, c F) int {
	n := vecLen[F](len(d))
	if n > 0 && unsafe.Sizeof(c) == 4 {
		scaleAddSumRowF32(p32(d), p32(x), p32(a), p32(b), n, float32(s), float32(c))
	} else if n > 0 {
		scaleAddSumRowF64(p64(d), p64(x), p64(a), p64(b), n, float64(s), float64(c))
	}
	return n
}
