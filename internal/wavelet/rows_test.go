package wavelet

import (
	"math"
	"math/rand"
	"testing"

	"stwave/internal/num"
)

// rowBodies lists the settings of useAVX2 this binary can run: the Go
// loops always, and the AVX2 bodies where the CPU has them. A test that
// sets useAVX2 puts it back to num.HaveAVX2 when it is done.
func rowBodies() []bool {
	if num.HaveAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

func rowBodyName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "go"
}

// eachRowBody returns a test that runs f once per row body, as subtests
// named by rowBodyName.
func eachRowBody(f func(*testing.T)) func(*testing.T) {
	return func(t *testing.T) {
		defer func() { useAVX2 = num.HaveAVX2 }()
		for _, on := range rowBodies() {
			useAVX2 = on
			t.Run(rowBodyName(on), f)
		}
	}
}

// TestRowBodiesBitIdentical runs each row primitive that has an AVX2 body
// with the body off (the Go loop alone, the oracle) and on, at every row
// length from 0 to 67 and both precisions, over operands and coefficients
// drawn from ±0, subnormals, ±Inf, NaN, the largest finite value and
// ordinary normals. Every output lane must match bit for bit, any NaN
// matching any NaN.
func TestRowBodiesBitIdentical(t *testing.T) {
	if !num.HaveAVX2 {
		t.Skip("this build or CPU has no AVX2 row bodies")
	}
	defer func() { useAVX2 = num.HaveAVX2 }()
	t.Run("float64", testRowBodies[float64])
	t.Run("float32", testRowBodies[float32])
}

func testRowBodies[F num.Float](t *testing.T) {
	maxF, tiny := F(math.MaxFloat32), F(math.SmallestNonzeroFloat32)
	if !num.Is32[F]() {
		m, s := math.MaxFloat64, math.SmallestNonzeroFloat64
		maxF, tiny = F(m), F(s)
	}
	negZero := F(math.Copysign(0, -1))
	inf, nan := F(math.Inf(1)), F(math.NaN())
	special := []F{0, negZero, tiny, -tiny, tiny * 1000, inf, -inf, nan, maxF, -maxF, 1, -1.5}
	coefs := []F{cdf97Alpha, cdf97Delta, -0.5, 0.7071067811865476, 0, negZero, tiny, inf, nan, maxF}
	rng := rand.New(rand.NewSource(3))
	pick := func() F {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return F(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
	}
	fill := func(n int) []F {
		s := make([]F, n)
		for i := range s {
			s[i] = pick()
		}
		return s
	}
	prims := []struct {
		name string
		run  func(d, x, a, b []F, c, s F)
	}{
		{"addSumRow", func(d, x, a, b []F, c, _ F) { copy(d, x); addSumRow(d, a, b, c) }},
		{"scaleRow", func(d, x, _, _ []F, _, s F) { scaleRow(d, x, s) }},
		{"addSumScaleRow", func(d, x, a, b []F, c, s F) { addSumScaleRow(d, x, a, b, c, s) }},
		{"scaleAddSumRow", func(d, x, a, b []F, c, s F) { scaleAddSumRow(d, x, a, b, s, c) }},
	}
	for _, p := range prims {
		for n := 0; n <= 67; n++ {
			for _, c := range coefs {
				s := coefs[rng.Intn(len(coefs))]
				x, a, b := fill(n), fill(n), fill(n)
				want, got := make([]F, n), make([]F, n)
				useAVX2 = false
				p.run(want, x, a, b, c, s)
				useAVX2 = true
				p.run(got, x, a, b, c, s)
				for j := range want {
					if !sameBits(want[j], got[j]) {
						t.Fatalf("%s n=%d c=%v s=%v lane %d (x %v a %v b %v): avx2 %v (bits %x) != go %v (bits %x)",
							p.name, n, c, s, j, x[j], a[j], b[j], got[j], math.Float64bits(float64(got[j])), want[j], math.Float64bits(float64(want[j])))
					}
				}
			}
		}
	}
}
