package wavelet

import "stwave/internal/num"

// BandLengths returns the signal lengths at each applied level (the length
// the forward transform saw at level l), outermost first. Level l's detail
// band is [ApproxLenAfter(n, l+1), BandLengths(n, levels)[l]).
func BandLengths(n, levels int) []int {
	lens := make([]int, 0, levels)
	for l := 0; l < levels && n >= 2; l++ {
		lens = append(lens, n)
		n = approxLen(n)
	}
	return lens
}

// MaxLevels implements the paper's Equation 2:
//
//	J = floor(log2(len / filterSize)) + 1
//
// clamped to be non-negative. With a window of 10, CDF 9/7 (filter size 9)
// permits 1 level while CDF 5/3 (filter size 5) permits 2, matching the
// paper's Section IV-B discussion. For the Daub4 kernel (periodic
// extension), odd signal lengths return 0.
func MaxLevels(k Kernel, n int) int {
	fs := k.FilterSize()
	if fs <= 0 || n < fs {
		return 0
	}
	if k == Daub4 && n%2 != 0 {
		return 0
	}
	j := 0
	for m := n / fs; m >= 1; m >>= 1 {
		j++
	}
	return j
}

// ApproxLenAfter returns the approximation-band length after applying
// `levels` levels to a signal of length n.
func ApproxLenAfter(n, levels int) int {
	for l := 0; l < levels && n >= 2; l++ {
		n = approxLen(n)
	}
	return n
}

// ForwardStep applies exactly one level of the forward transform to data,
// without level-count validation. It is the building block the
// multi-dimensional non-standard decomposition uses, where the level budget
// is computed once globally rather than per line. scratch must be at least
// len(data) long. Signals shorter than 2 samples are left unchanged.
func ForwardStep[F num.Float](k Kernel, data, scratch []F) {
	n := len(data)
	if n < 2 {
		return
	}
	copy(scratch[:n], data)
	forwardLift(k, scratch[:n], data)
}

// InverseStep undoes exactly one ForwardStep.
func InverseStep[F num.Float](k Kernel, data, scratch []F) {
	n := len(data)
	if n < 2 {
		return
	}
	inverseLift(k, data, scratch[:n])
	copy(data, scratch[:n])
}
