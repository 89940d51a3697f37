package wavelet

import (
	"math"

	"stwave/internal/num"
)

// This file implements the blocked (multi-lane) form of the lifting filter
// banks: the same ladder as lift.go applied to L independent signals at
// once. The signals live interleaved in a sample-major slab — sample i of
// lane j at slab[i*L+j] — so every lifting step's inner loop walks L
// contiguous floats instead of chasing one strided element per signal.
// The multi-dimensional transforms gather a tile of L neighbouring lines
// (or grid-point time series) into such a slab with plain copies, run the
// blocked kernel, and scatter back: the strided memory walk happens once
// per tile as bulk copies rather than once per lifting step per element.
//
// The kernels are sequences of row primitives, one per elementwise
// expression, each applied across the L lanes of one sample row. Every
// primitive call carries the expression shape of the matching statement
// in lift.go — the same operations on the same operands in the same
// order — so each lane's result is bit-identical to running the line
// kernel on that signal alone. Two shapes differ in value and must never
// be exchanged: a reflected neighbour c*(m+m) calls a two-neighbour
// primitive with a == b, while lift.go's c*2*x (sample 0 of an even
// step) calls a one-neighbour primitive with coefficient c*2; the first
// overflows to Inf where the second stays finite. A statement changed in
// lift.go changes the primitive its row calls here, and the reverse.
// Products feeding an addition are wrapped in F(...), as in lift.go, so
// no target fuses them into a multiply-add.
// TestBlockBitIdentical and the FuzzBlockMatchesLine targets pin the
// equivalence at both precisions, at extreme magnitudes included.

// row is sample row i of a slab with L lanes.
func row[F num.Float](x []F, i, L int) []F { return x[i*L : i*L+L] }

// addRow is x += c*a.
func addRow[F num.Float](x, a []F, c F) {
	a = a[:len(x)]
	for j, v := range x {
		x[j] = v + F(c*a[j])
	}
}

// addSumRow is x += c*(a+b). It is one of the three primitives the
// ladders spend most of their time in: an AVX2 body where the CPU has
// one (rows_amd64.s) takes whole groups of lanes, and the Go loop,
// unrolled four lanes wide, takes the rest.
func addSumRow[F num.Float](x, a, b []F, c F) {
	a, b = a[:len(x)], b[:len(x)]
	j := addSumRowVec(x, a, b, c)
	for ; j+4 <= len(x); j += 4 {
		x4, a4, b4 := x[j:j+4:j+4], a[j:j+4:j+4], b[j:j+4:j+4]
		x4[0] += F(c * (a4[0] + b4[0]))
		x4[1] += F(c * (a4[1] + b4[1]))
		x4[2] += F(c * (a4[2] + b4[2]))
		x4[3] += F(c * (a4[3] + b4[3]))
	}
	for ; j < len(x); j++ {
		x[j] += F(c * (a[j] + b[j]))
	}
}

// scaleRow is d = x*s, unrolled four lanes wide after its AVX2 body.
func scaleRow[F num.Float](d, x []F, s F) {
	x = x[:len(d)]
	j := scaleRowVec(d, x, s)
	for ; j+4 <= len(d); j += 4 {
		d4, x4 := d[j:j+4:j+4], x[j:j+4:j+4]
		d4[0] = x4[0] * s
		d4[1] = x4[1] * s
		d4[2] = x4[2] * s
		d4[3] = x4[3] * s
	}
	for ; j < len(d); j++ {
		d[j] = x[j] * s
	}
}

// addScaleRow is d = (x + c*a)*s.
func addScaleRow[F num.Float](d, x, a []F, c, s F) {
	x, a = x[:len(d)], a[:len(d)]
	for j, v := range x {
		d[j] = (v + F(c*a[j])) * s
	}
}

// addSumScaleRow is d = (x + c*(a+b))*s, unrolled four lanes wide after
// its AVX2 body.
func addSumScaleRow[F num.Float](d, x, a, b []F, c, s F) {
	x, a, b = x[:len(d)], a[:len(d)], b[:len(d)]
	j := addSumScaleRowVec(d, x, a, b, c, s)
	for ; j+4 <= len(d); j += 4 {
		d4, x4, a4, b4 := d[j:j+4:j+4], x[j:j+4:j+4], a[j:j+4:j+4], b[j:j+4:j+4]
		d4[0] = (x4[0] + F(c*(a4[0]+b4[0]))) * s
		d4[1] = (x4[1] + F(c*(a4[1]+b4[1]))) * s
		d4[2] = (x4[2] + F(c*(a4[2]+b4[2]))) * s
		d4[3] = (x4[3] + F(c*(a4[3]+b4[3]))) * s
	}
	for ; j < len(d); j++ {
		d[j] = (x[j] + F(c*(a[j]+b[j]))) * s
	}
}

// scaleAddRow is d = x*s + c*a.
func scaleAddRow[F num.Float](d, x, a []F, s, c F) {
	x, a = x[:len(d)], a[:len(d)]
	for j, v := range x {
		d[j] = F(v*s) + F(c*a[j])
	}
}

// scaleAddSumRow is d = x*s + c*(a+b), the inverse ladder's hot row,
// after its AVX2 body.
func scaleAddSumRow[F num.Float](d, x, a, b []F, s, c F) {
	x, a, b = x[:len(d)], a[:len(d)], b[:len(d)]
	for j := scaleAddSumRowVec(d, x, a, b, s, c); j < len(d); j++ {
		d[j] = F(x[j]*s) + F(c*(a[j]+b[j]))
	}
}

// haarRow is the Haar butterfly: p = (a+b)*s, m = (a-b)*s.
func haarRow[F num.Float](p, m, a, b []F, s F) {
	m, a, b = m[:len(p)], a[:len(p)], b[:len(p)]
	for j, u := range a {
		v := b[j]
		p[j] = (u + v) * s
		m[j] = (u - v) * s
	}
}

// liftStepBlock is liftStep(x, 1, c) per lane: the odd-parity lifting
// step, the only one the ladders run unfused.
func liftStepBlock[F num.Float](x []F, n, L int, c F) {
	i := 1
	for ; i+1 < n; i += 2 {
		addSumRow(row(x, i, L), row(x, i-1, L), row(x, i+1, L), c)
	}
	if i == n-1 {
		// Last sample's right neighbour reflects to sample n-2.
		m := row(x, n-2, L)
		addSumRow(row(x, n-1, L), m, m, c)
	}
}

// liftPairOddEvenBlock is liftPairOddEven per lane: two adjacent lifting
// steps (odd ca, then even cb) fused into one pass over the slab, each
// even row updated as soon as both odd neighbour rows are. Requires
// n >= 2.
func liftPairOddEvenBlock[F num.Float](x []F, n, L int, ca, cb F) {
	if n == 2 {
		r0, r1 := row(x, 0, L), row(x, 1, L)
		addSumRow(r1, r0, r0, ca)
		addRow(r0, r1, cb*2)
		return
	}
	// Odd row 1 (interior), then even row 0 against it.
	addSumRow(row(x, 1, L), row(x, 0, L), row(x, 2, L), ca)
	addRow(row(x, 0, L), row(x, 1, L), cb*2)
	i := 2
	for ; i+2 < n; i += 2 {
		// Odd row i+1 reads the still-original even rows i and i+2; even
		// row i then reads the updated odd rows i-1 and i+1.
		addSumRow(row(x, i+1, L), row(x, i, L), row(x, i+2, L), ca)
		addSumRow(row(x, i, L), row(x, i-1, L), row(x, i+1, L), cb)
	}
	if i+1 < n {
		// n even: odd row n-1 reflects right to n-2, then even row n-2.
		m := row(x, i, L)
		addSumRow(row(x, i+1, L), m, m, ca)
		addSumRow(m, row(x, i-1, L), row(x, i+1, L), cb)
	} else {
		// n odd: even row n-1's neighbours both reflect to n-2.
		m := row(x, i-1, L)
		addSumRow(row(x, i, L), m, m, cb)
	}
}

// liftPairDeinterleaveScaledBlock is liftPairDeinterleaveScaled per lane:
// the ladder's last two lifting steps (odd ca, even cb) fused with the
// deinterleave+scale pass. Odd rows are updated in place in x as lifting
// neighbours; even results go straight to dst. Requires n >= 2.
func liftPairDeinterleaveScaledBlock[F num.Float](x, dst []F, n, L int, ca, cb, lo, hi F) {
	na := approxLen(n)
	if n == 2 {
		r0, r1 := row(x, 0, L), row(x, 1, L)
		addSumRow(r1, r0, r0, ca)
		scaleRow(row(dst, 1, L), r1, hi)
		addScaleRow(row(dst, 0, L), r0, r1, cb*2, lo)
		return
	}
	// Odd row 1 (interior), its detail output, then even row 0.
	addSumRow(row(x, 1, L), row(x, 0, L), row(x, 2, L), ca)
	scaleRow(row(dst, na, L), row(x, 1, L), hi)
	addScaleRow(row(dst, 0, L), row(x, 0, L), row(x, 1, L), cb*2, lo)
	i := 2
	for ; i+2 < n; i += 2 {
		// Even rows of x are never written: their results go to dst.
		addSumRow(row(x, i+1, L), row(x, i, L), row(x, i+2, L), ca)
		scaleRow(row(dst, na+i/2, L), row(x, i+1, L), hi)
		addSumScaleRow(row(dst, i/2, L), row(x, i, L), row(x, i-1, L), row(x, i+1, L), cb, lo)
	}
	if i+1 < n {
		// n even: odd row n-1 reflects right, then even row n-2.
		m := row(x, i, L)
		addSumRow(row(x, i+1, L), m, m, ca)
		scaleRow(row(dst, na+i/2, L), row(x, i+1, L), hi)
		addSumScaleRow(row(dst, i/2, L), m, row(x, i-1, L), row(x, i+1, L), cb, lo)
	} else {
		// n odd: even row n-1's neighbours both reflect to n-2.
		m := row(x, i-1, L)
		addSumScaleRow(row(dst, i/2, L), row(x, i, L), m, m, cb, lo)
	}
}

// interleaveScaledLiftEvenBlock is interleaveScaledLiftEven per lane:
// the interleave+scale expansion fused with the synthesis ladder's first
// even-parity lifting step. src is read only. Requires n >= 2.
func interleaveScaledLiftEvenBlock[F num.Float](src, dst []F, n, L int, lo, hi, c F) {
	na := approxLen(n)
	for i := 0; i < n-na; i++ {
		scaleRow(row(dst, 2*i+1, L), row(src, na+i, L), hi)
	}
	scaleAddRow(row(dst, 0, L), row(src, 0, L), row(dst, 1, L), lo, c*2)
	i := 2
	for ; i+1 < n; i += 2 {
		scaleAddSumRow(row(dst, i, L), row(src, i/2, L), row(dst, i-1, L), row(dst, i+1, L), lo, c)
	}
	if i == n-1 {
		m := row(dst, n-2, L)
		scaleAddSumRow(row(dst, n-1, L), row(src, na-1, L), m, m, lo, c)
	}
}

// forwardHaarBlock is forwardHaar per lane, odd-length carry included.
func forwardHaarBlock[F num.Float](x, dst []F, n, L int) {
	na := approxLen(n)
	const s = 0.7071067811865476 // 1/sqrt(2)
	for i := 0; 2*i+1 < n; i++ {
		haarRow(row(dst, i, L), row(dst, na+i, L), row(x, 2*i, L), row(x, 2*i+1, L), s)
	}
	if n%2 == 1 {
		scaleRow(row(dst, na-1, L), row(x, n-1, L), math.Sqrt2)
	}
}

func inverseHaarBlock[F num.Float](src, dst []F, n, L int) {
	na := approxLen(n)
	const s = 0.7071067811865476
	for i := 0; 2*i+1 < n; i++ {
		haarRow(row(dst, 2*i, L), row(dst, 2*i+1, L), row(src, i, L), row(src, na+i, L), s)
	}
	if n%2 == 1 {
		scaleRow(row(dst, n-1, L), row(src, na-1, L), s)
	}
}

// forwardDaub4Block is forwardDaub4 per lane (periodic extension, even n
// required; odd n copies through, matching the scalar kernel).
func forwardDaub4Block[F num.Float](x, dst []F, n, L int) {
	if n%2 != 0 {
		copy(dst[:n*L], x[:n*L])
		return
	}
	na := n / 2
	h := [4]F{daub4H0, daub4H1, daub4H2, daub4H3}
	g := [4]F{h[3], -h[2], h[1], -h[0]}
	for i := 0; i < na; i++ {
		dlo := row(dst, i, L)
		dhi := row(dst, na+i, L)
		dhi = dhi[:len(dlo)]
		clear(dlo)
		clear(dhi)
		for k := 0; k < 4; k++ {
			v := row(x, (2*i+k)%n, L)
			v = v[:len(dlo)]
			hk, gk := h[k], g[k]
			for j, vj := range v {
				dlo[j] += F(hk * vj)
				dhi[j] += F(gk * vj)
			}
		}
	}
}

func inverseDaub4Block[F num.Float](src, dst []F, n, L int) {
	if n%2 != 0 {
		copy(dst[:n*L], src[:n*L])
		return
	}
	na := n / 2
	h := [4]F{daub4H0, daub4H1, daub4H2, daub4H3}
	g := [4]F{h[3], -h[2], h[1], -h[0]}
	clear(dst[:n*L])
	for i := 0; i < na; i++ {
		rlo := row(src, i, L)
		rhi := row(src, na+i, L)
		rhi = rhi[:len(rlo)]
		for k := 0; k < 4; k++ {
			d := row(dst, (2*i+k)%n, L)
			d = d[:len(rlo)]
			hk, gk := h[k], g[k]
			for j := range d {
				d[j] += F(hk*rlo[j]) + F(gk*rhi[j])
			}
		}
	}
}

// ForwardStepBlockTo applies exactly one forward transform level to L
// independent signals held sample-major in src (sample i, lane j at
// src[i*L+j]), writing each lane's [approx | detail] result into dst:
// bit-identical per lane to ForwardStep on that signal alone. src is
// clobbered as lifting scratch. dst must hold at least n*L floats and
// must not alias src. Slabs with n < 2 samples are left unwritten, so
// callers treat them as pass-through, like the scalar step. Mirrors
// forwardLift.
func ForwardStepBlockTo[F num.Float](k Kernel, src, dst []F, n, L int) {
	if n < 2 || L < 1 {
		return
	}
	switch k {
	case CDF97:
		liftPairOddEvenBlock(src, n, L, cdf97Alpha, cdf97Beta)
		liftPairDeinterleaveScaledBlock(src, dst, n, L, cdf97Gamma, cdf97Delta, F(cdf97ScaleLo), F(cdf97ScaleHi))
	case CDF53:
		liftPairDeinterleaveScaledBlock(src, dst, n, L, -0.5, 0.25, F(cdf53ScaleLo), F(cdf53ScaleHi))
	case Haar:
		forwardHaarBlock(src, dst, n, L)
	case Daub4:
		forwardDaub4Block(src, dst, n, L)
	default:
		copy(dst[:n*L], src[:n*L])
	}
}

// InverseStepBlockTo undoes exactly one forward level: src holds
// [approx | detail] per lane and is left unmodified, dst receives the
// reconstructed signals. Bit-identical per lane to InverseStep. dst must
// not alias src; n < 2 slabs are left unwritten. Mirrors inverseLift.
func InverseStepBlockTo[F num.Float](k Kernel, src, dst []F, n, L int) {
	if n < 2 || L < 1 {
		return
	}
	switch k {
	case CDF97:
		interleaveScaledLiftEvenBlock(src, dst, n, L, F(1/cdf97ScaleLo), F(1/cdf97ScaleHi), -cdf97Delta)
		liftPairOddEvenBlock(dst, n, L, -cdf97Gamma, -cdf97Beta)
		liftStepBlock(dst, n, L, -cdf97Alpha)
	case CDF53:
		interleaveScaledLiftEvenBlock(src, dst, n, L, F(1/cdf53ScaleLo), F(1/cdf53ScaleHi), -0.25)
		liftStepBlock(dst, n, L, 0.5)
	case Haar:
		inverseHaarBlock(src, dst, n, L)
	case Daub4:
		inverseDaub4Block(src, dst, n, L)
	default:
		copy(dst[:n*L], src[:n*L])
	}
}
