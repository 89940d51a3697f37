// Package fft implements radix-2 fast Fourier transforms for the
// pseudo-spectral Navier-Stokes solver in internal/sim/ghost. Only
// power-of-two lengths are supported, which is all the solver needs.
//
// Conventions: Forward computes X[k] = sum_n x[n] exp(-2πi kn/N) (no
// scaling); Inverse computes x[n] = (1/N) sum_k X[k] exp(+2πi kn/N), so
// Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Plan caches twiddle factors and the bit-reversal permutation for a fixed
// transform length. A Plan is safe for concurrent use.
type Plan struct {
	n       int
	rev     []int
	twiddle []complex128 // twiddle[j] = exp(-2πi j / n), j < n/2
}

// NewPlan creates a plan for length n (must be a power of two).
func NewPlan(n int) (*Plan, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("fft: length %d is not a power of two", n)
	}
	p := &Plan{n: n, rev: make([]int, n), twiddle: make([]complex128, n/2)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	for j := range p.twiddle {
		angle := -2 * math.Pi * float64(j) / float64(n)
		p.twiddle[j] = complex(math.Cos(angle), math.Sin(angle))
	}
	return p, nil
}

// Forward transforms x in place. len(x) must equal the plan length.
func (p *Plan) Forward(x []complex128) {
	p.transform(x, false)
}

// Inverse applies the inverse transform in place, including the 1/N scale.
func (p *Plan) Inverse(x []complex128) {
	p.transform(x, true)
	scale := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= scale
	}
}

func (p *Plan) transform(x []complex128, inverse bool) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("fft: input length %d != plan length %d", len(x), n))
	}
	// Bit-reversal permutation.
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Iterative Cooley-Tukey butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[tw]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				t := w * x[k+half]
				x[k+half] = x[k] - t
				x[k] = x[k] + t
				tw += step
			}
		}
	}
}
