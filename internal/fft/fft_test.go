package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 12, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestNewPlanRejectsNonPow2(t *testing.T) {
	if _, err := NewPlan(12); err == nil {
		t.Error("expected error for n=12")
	}
	if _, err := NewPlan(0); err == nil {
		t.Error("expected error for n=0")
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randComplex(rng, n)
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: FFT deviates from DFT by %.3g", n, e)
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 16, 256, 1024} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randComplex(rng, n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if e := maxErr(x, y); e > 1e-10*float64(n) {
			t.Errorf("n=%d: round trip error %.3g", n, e)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 256
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	x := randComplex(rng, n)
	var timeEnergy float64
	for _, v := range x {
		timeEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	p.Forward(x)
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy)/timeEnergy > 1e-12 {
		t.Errorf("Parseval violated: %g vs %g", timeEnergy, freqEnergy)
	}
}

func TestSingleModeTransform(t *testing.T) {
	// exp(2πi k0 n / N) transforms to a delta at k0.
	n := 64
	k0 := 5
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, n)
	for i := range x {
		angle := 2 * math.Pi * float64(k0) * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, angle))
	}
	p.Forward(x)
	for k := range x {
		want := complex(0, 0)
		if k == k0 {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(x[k]-want) > 1e-9 {
			t.Errorf("bin %d = %v, want %v", k, x[k], want)
		}
	}
}

func TestPlan3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 8
	p, err := NewPlan3(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := randComplex(rng, n*n*n)
	y := append([]complex128(nil), x...)
	p.Forward(y)
	p.Inverse(y)
	if e := maxErr(x, y); e > 1e-9 {
		t.Errorf("3D round trip error %.3g", e)
	}
}

func TestPlan3MatchesSeparableDFT(t *testing.T) {
	// A separable single mode exp(2πi(ax+by+cz)/n) must transform to a
	// single nonzero bin at (a,b,c).
	n := 8
	a, b, c := 2, 3, 1
	p, err := NewPlan3(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, n*n*n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for xx := 0; xx < n; xx++ {
				angle := 2 * math.Pi * (float64(a*xx) + float64(b*y) + float64(c*z)) / float64(n)
				x[(z*n+y)*n+xx] = cmplx.Exp(complex(0, angle))
			}
		}
	}
	p.Forward(x)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for xx := 0; xx < n; xx++ {
				idx := (z*n+y)*n + xx
				want := complex(0, 0)
				if xx == a && y == b && z == c {
					want = complex(float64(n*n*n), 0)
				}
				if cmplx.Abs(x[idx]-want) > 1e-6 {
					t.Fatalf("bin (%d,%d,%d) = %v, want %v", xx, y, z, x[idx], want)
				}
			}
		}
	}
}

func TestPlan3ParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 16
	ser, err := NewPlan3(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewPlan3(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := randComplex(rng, n*n*n)
	a := append([]complex128(nil), x...)
	b := append([]complex128(nil), x...)
	ser.Forward(a)
	par.Forward(b)
	if e := maxErr(a, b); e != 0 {
		t.Errorf("parallel 3D FFT differs from serial by %g", e)
	}
}

// Property: linearity of the transform.
func TestQuickFFTLinearity(t *testing.T) {
	p, err := NewPlan(64)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64, aRaw, bRaw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := complex(float64(aRaw)/16, 0)
		b := complex(float64(bRaw)/16, 0)
		x := randComplex(rng, 64)
		y := randComplex(rng, 64)
		combo := make([]complex128, 64)
		for i := range combo {
			combo[i] = a*x[i] + b*y[i]
		}
		p.Forward(combo)
		p.Forward(x)
		p.Forward(y)
		for i := range combo {
			if cmplx.Abs(combo[i]-(a*x[i]+b*y[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	p, err := NewPlan(1024)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x := randComplex(rng, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
		p.Inverse(x)
	}
}

func BenchmarkFFT3D32(b *testing.B) {
	p, err := NewPlan3(32, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	x := randComplex(rng, 32*32*32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
		p.Inverse(x)
	}
}

// naiveDFT is the direct O(n^2) forward transform, unscaled: the
// reference the FFT is checked against.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += x[j] * complex(math.Cos(angle), math.Sin(angle))
		}
		out[k] = sum
	}
	return out
}
