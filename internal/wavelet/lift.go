package wavelet

import "stwave/internal/num"

// This file implements the lifting-scheme filter banks. A single forward
// pass works on the interleaved signal x[0..n-1]: even indices carry the
// (future) approximation samples and odd indices the detail samples. Each
// lifting step adds a scaled sum of the two opposite-parity neighbours to
// every sample of one parity:
//
//	x[i] += c * (x[i-1] + x[i+1])   for all i of the step's parity
//
// Out-of-range neighbour indices are reflected with whole-sample symmetry
// (-1 -> 1, n -> n-2), which preserves parity and yields a non-expansive,
// perfectly reconstructing transform for every length n >= 2 with symmetric
// kernels. After the ladder, samples are de-interleaved into
// [approximation | detail] halves and scaled.
//
// Every kernel is generic over num.Float: the float64 instantiation is
// bit-identical to the original scalar code (lifting constants are untyped
// and scale factors are converted with F(...), which is the identity at
// float64), and the float32 instantiation performs every operation in
// single precision with the same operand ordering, so each precision is
// bit-stable on its own.
//
// Every product that feeds an addition is wrapped in an explicit F(...)
// conversion. The Go spec lets a compiler fuse x + c*y into one fused
// multiply-add, which rounds once where the expression rounds twice, and
// gc does so on arm64, ppc64le, s390x and riscv64. An explicit conversion
// is a rounding point no fusion may cross, so the coefficients' bits are
// the same on every target (make check counts the FMADDs in an arm64
// build of internal/core).

// liftStep applies one lifting step in place to the interleaved signal.
// parity selects which samples are updated (0 = even, 1 = odd); c is the
// lifting coefficient.
func liftStep[F num.Float](x []F, parity int, c F) {
	n := len(x)
	if n < 2 {
		return
	}
	// Interior samples need no reflection; handle boundaries separately so
	// the hot loop stays branch-free.
	start := parity
	if start == 0 {
		// x[0] neighbours are x[-1] -> x[1] and x[1].
		x[0] += F(c * 2 * x[1])
		start = 2
	}
	i := start
	if i >= 1 && i+1 < n {
		// Rebased slices plus a carried neighbour load: x[i+1] this
		// iteration is x[i-1] two samples later, so the loop does two
		// loads per sample instead of three and the compiler can prove
		// the remaining indices in bounds. Values and evaluation order
		// match the textbook x[i] += c*(x[i-1]+x[i+1]) exactly.
		xi := x[start : n-1]
		xp := x[start+1:]
		am := x[start-1]
		j := 0
		for ; j < len(xi); j += 2 {
			ap := xp[j]
			xi[j] += F(c * (am + ap))
			am = ap
		}
		i = start + j
	}
	if i == n-1 {
		// Last sample's right neighbour x[n] reflects to x[n-2].
		x[n-1] += F(c * (x[n-2] + x[n-2]))
	}
}

// liftPairOddEven fuses two adjacent lifting steps — odd parity with
// coefficient ca, then even parity with cb — into one pass over x,
// software-pipelined so each even sample is updated as soon as both its
// odd neighbours are. Requires len(x) >= 2. Bit-identical to
// liftStep(x, 1, ca) followed by liftStep(x, 0, cb): every sample sees
// exactly the same operand values in the same expression shapes.
func liftPairOddEven[F num.Float](x []F, ca, cb F) {
	n := len(x)
	if n == 2 {
		m := x[0]
		x[1] += F(ca * (m + m))
		x[0] += F(cb * 2 * x[1])
		return
	}
	// Odd sample 1 and even sample 0, then the pipelined interior: odd
	// i+1 reads the still-original even neighbours, even i reads the two
	// odd neighbours just produced (am carried, ap fresh).
	am := x[1] + F(ca*(x[0]+x[2]))
	x[1] = am
	x[0] += F(cb * 2 * am)
	i := 2
	for ; i+2 < n; i += 2 {
		ap := x[i+1] + F(ca*(x[i]+x[i+2]))
		x[i+1] = ap
		x[i] += F(cb * (am + ap))
		am = ap
	}
	if i+1 < n {
		// n even: the last odd sample's right neighbour reflects to n-2.
		m := x[i]
		ap := x[i+1] + F(ca*(m+m))
		x[i+1] = ap
		x[i] += F(cb * (am + ap))
	} else {
		// n odd: the last even sample's neighbours both reflect to n-2.
		x[i] += F(cb * (am + am))
	}
}

// liftPairDeinterleaveScaled fuses the ladder's last two lifting steps
// (odd ca, even cb) with the deinterleave+scale pass: one walk over x
// emits dst directly — odd results to the detail half scaled by hi, even
// results to the approximation half scaled by lo. x is left unmodified.
// Requires len(x) >= 2. Bit-identical to liftStep(x, 1, ca) followed by
// liftEvenDeinterleaveScaled(x, dst, cb, lo, hi).
func liftPairDeinterleaveScaled[F num.Float](x, dst []F, ca, cb, lo, hi F) {
	n := len(x)
	na := approxLen(n)
	if n == 2 {
		m := x[0]
		o := x[1] + F(ca*(m+m))
		dst[1] = o * hi
		dst[0] = (x[0] + F(cb*2*o)) * lo
		return
	}
	am := x[1] + F(ca*(x[0]+x[2]))
	dst[na] = am * hi
	dst[0] = (x[0] + F(cb*2*am)) * lo
	i := 2
	for ; i+2 < n; i += 2 {
		ap := x[i+1] + F(ca*(x[i]+x[i+2]))
		dst[na+i/2] = ap * hi
		dst[i/2] = (x[i] + F(cb*(am+ap))) * lo
		am = ap
	}
	if i+1 < n {
		// n even: last odd reflects right to n-2, then the last even.
		m := x[i]
		ap := x[i+1] + F(ca*(m+m))
		dst[na+i/2] = ap * hi
		dst[i/2] = (x[i] + F(cb*(am+ap))) * lo
	} else {
		// n odd: the last even sample's neighbours both reflect.
		dst[i/2] = (x[i] + F(cb*(am+am))) * lo
	}
}

// forwardLift runs the full analysis ladder for kernel k on the interleaved
// signal, then de-interleaves into dst as [approx | detail] and applies the
// normalization scales. len(dst) == len(x). x is clobbered.
func forwardLift[F num.Float](k Kernel, x, dst []F) {
	n := len(x)
	if n == 0 {
		return
	}
	if n == 1 {
		dst[0] = x[0]
		return
	}
	switch k {
	case CDF97:
		liftPairOddEven(x, F(cdf97Alpha), F(cdf97Beta))
		liftPairDeinterleaveScaled(x, dst, F(cdf97Gamma), F(cdf97Delta), F(cdf97ScaleLo), F(cdf97ScaleHi))
	case CDF53:
		liftPairDeinterleaveScaled(x, dst, F(-0.5), F(0.25), F(cdf53ScaleLo), F(cdf53ScaleHi))
	case Haar:
		forwardHaar(x, dst)
	case Daub4:
		forwardDaub4(x, dst)
	default:
		copy(dst, x)
	}
}

// inverseLift is the exact inverse of forwardLift: src holds
// [approx | detail] coefficients, dst receives the reconstructed signal.
// len(src) == len(dst). src is not modified; dst is used as scratch.
func inverseLift[F num.Float](k Kernel, src, dst []F) {
	n := len(src)
	if n == 0 {
		return
	}
	if n == 1 {
		dst[0] = src[0]
		return
	}
	switch k {
	case CDF97:
		interleaveScaledLiftEven(src, dst, F(1/cdf97ScaleLo), F(1/cdf97ScaleHi), F(-cdf97Delta))
		liftPairOddEven(dst, F(-cdf97Gamma), F(-cdf97Beta))
		liftStep(dst, 1, F(-cdf97Alpha))
	case CDF53:
		interleaveScaledLiftEven(src, dst, F(1/cdf53ScaleLo), F(1/cdf53ScaleHi), F(-0.25))
		liftStep(dst, 1, F(0.5))
	case Haar:
		inverseHaar(src, dst)
	case Daub4:
		inverseDaub4(src, dst)
	default:
		copy(dst, src)
	}
}

// approxLen returns the number of approximation coefficients produced from a
// signal of length n: ceil(n/2).
func approxLen(n int) int { return (n + 1) / 2 }

// interleaveScaledLiftEven fuses the interleave+scale expansion with the
// synthesis ladder's first even-parity lifting step: the odd (detail)
// samples are expanded first, then each even sample is scaled and lifted
// against the odd neighbours already in dst. Requires len(src) >= 2.
// Bit-identical to interleaving src as [approx*lo | detail*hi] and then
// running liftStep(dst, 0, c).
func interleaveScaledLiftEven[F num.Float](src, dst []F, lo, hi, c F) {
	n := len(src)
	na := approxLen(n)
	for i := 0; i < n-na; i++ {
		dst[2*i+1] = src[na+i] * hi
	}
	dst[0] = F(src[0]*lo) + F(c*2*dst[1])
	i := 2
	for ; i+1 < n; i += 2 {
		dst[i] = F(src[i/2]*lo) + F(c*(dst[i-1]+dst[i+1]))
	}
	if i == n-1 {
		m := dst[n-2]
		dst[n-1] = F(src[na-1]*lo) + F(c*(m+m))
	}
}

// forwardHaar computes the orthonormal Haar transform. For odd n the final
// unpaired sample is carried into the approximation band scaled by sqrt(2)
// — the lowpass DC gain — so that constant signals still compact perfectly
// at deeper levels; the transform stays non-expansive and perfectly
// reconstructing.
func forwardHaar[F num.Float](x, dst []F) {
	n := len(x)
	na := approxLen(n)
	const s = 0.7071067811865476 // 1/sqrt(2)
	const sqrt2 = 1.4142135623730951
	for i := 0; 2*i+1 < n; i++ {
		a, b := x[2*i], x[2*i+1]
		dst[i] = (a + b) * s
		dst[na+i] = (a - b) * s
	}
	if n%2 == 1 {
		dst[na-1] = x[n-1] * sqrt2
	}
}

func inverseHaar[F num.Float](src, dst []F) {
	n := len(src)
	na := approxLen(n)
	const s = 0.7071067811865476
	for i := 0; 2*i+1 < n; i++ {
		a, d := src[i], src[na+i]
		dst[2*i] = (a + d) * s
		dst[2*i+1] = (a - d) * s
	}
	if n%2 == 1 {
		dst[n-1] = src[na-1] * s
	}
}

// forwardDaub4 computes the orthonormal Daubechies-4 transform with periodic
// boundary extension. Requires even n (callers guarantee this via
// MaxLevels, which returns 0 levels for odd lengths with this kernel).
func forwardDaub4[F num.Float](x, dst []F) {
	n := len(x)
	if n%2 != 0 {
		copy(dst, x)
		return
	}
	na := n / 2
	h := [4]F{daub4H0, daub4H1, daub4H2, daub4H3}
	// Highpass is the quadrature mirror: g[k] = (-1)^k h[3-k].
	g := [4]F{h[3], -h[2], h[1], -h[0]}
	for i := 0; i < na; i++ {
		var lo, hi F
		for k := 0; k < 4; k++ {
			v := x[(2*i+k)%n]
			lo += F(h[k] * v)
			hi += F(g[k] * v)
		}
		dst[i] = lo
		dst[na+i] = hi
	}
}

func inverseDaub4[F num.Float](src, dst []F) {
	n := len(src)
	if n%2 != 0 {
		copy(dst, src)
		return
	}
	na := n / 2
	h := [4]F{daub4H0, daub4H1, daub4H2, daub4H3}
	g := [4]F{h[3], -h[2], h[1], -h[0]}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < na; i++ {
		lo, hi := src[i], src[na+i]
		for k := 0; k < 4; k++ {
			dst[(2*i+k)%n] += F(h[k]*lo) + F(g[k]*hi)
		}
	}
}
