package wavelet

import (
	"math"
	"math/rand"
	"testing"
)

func TestFilterTapsNormalization(t *testing.T) {
	sum := func(taps []float64) float64 {
		var s float64
		for _, v := range taps {
			s += v
		}
		return s
	}
	alt := func(taps []float64) float64 {
		var s float64
		for i, v := range taps {
			if i%2 == 0 {
				s += v
			} else {
				s -= v
			}
		}
		return s
	}
	for _, k := range []Kernel{CDF97, CDF53} {
		lo, hi := AnalysisFilters(k)
		if math.Abs(sum(lo)-math.Sqrt2) > 1e-12 {
			t.Errorf("%v: lowpass DC gain %g, want sqrt(2)", k, sum(lo))
		}
		if math.Abs(sum(hi)) > 1e-12 {
			t.Errorf("%v: highpass DC gain %g, want 0 (vanishing moment)", k, sum(hi))
		}
		// Highpass must respond at Nyquist.
		if math.Abs(alt(hi)) < 0.5 {
			t.Errorf("%v: highpass Nyquist gain %g suspiciously small", k, alt(hi))
		}
	}
	if lo, hi := AnalysisFilters(Haar); lo != nil || hi != nil {
		t.Error("Haar has no convolution form here")
	}
}

// The lifting implementation must compute exactly the same transform as
// direct convolution with symmetric extension, for even and odd lengths.
func TestLiftingMatchesConvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []Kernel{CDF97, CDF53} {
		for _, n := range []int{2, 3, 8, 9, 16, 17, 33, 64, 101} {
			src := randSignal(rng, n)
			viaLift := append([]float64(nil), src...)
			scratch := make([]float64, n)
			ForwardStep(k, viaLift, scratch)

			viaConv := make([]float64, n)
			if !ConvolveStep(k, src, viaConv) {
				t.Fatalf("%v: ConvolveStep refused", k)
			}
			for i := range viaConv {
				if d := math.Abs(viaLift[i] - viaConv[i]); d > 1e-10 {
					t.Fatalf("%v n=%d: lifting and convolution disagree at %d: %.12g vs %.12g (diff %.3g)",
						k, n, i, viaLift[i], viaConv[i], d)
				}
			}
		}
	}
}

func TestConvolveStepTinyInput(t *testing.T) {
	src := []float64{5}
	dst := make([]float64, 1)
	if !ConvolveStep(CDF97, src, dst) {
		t.Fatal("refused single sample")
	}
	if dst[0] != 5 {
		t.Errorf("single sample changed to %g", dst[0])
	}
	if ConvolveStep(Haar, src, dst) {
		t.Error("Haar should report no convolution form")
	}
}

// The direct convolution implementation of the CDF analysis filter banks
// below exists for two reasons: the explicit filter taps document exactly
// which wavelets these are, and the tests assert that the (faster) lifting
// implementation in lift.go computes the same transform, which guards both
// against regressions.

// CDF97AnalysisLowpass holds the 9 analysis lowpass taps of the CDF 9/7
// kernel, centered (index 4 is the center tap), normalized to DC gain
// sqrt(2).
var CDF97AnalysisLowpass = [9]float64{
	0.037828455506995,
	-0.023849465019380,
	-0.110624404418423,
	0.377402855612654,
	0.852698679009403,
	0.377402855612654,
	-0.110624404418423,
	-0.023849465019380,
	0.037828455506995,
}

// CDF97AnalysisHighpass holds the 7 analysis highpass taps (center index
// 3), normalized so the synthesis pair reconstructs exactly with the
// lowpass above.
var CDF97AnalysisHighpass = [7]float64{
	0.064538882628938,
	-0.040689417609558,
	-0.418092273222212,
	0.788485616405664,
	-0.418092273222212,
	-0.040689417609558,
	0.064538882628938,
}

// CDF53AnalysisLowpass holds the 5 analysis lowpass taps of the CDF 5/3
// (LeGall) kernel, normalized to DC gain sqrt(2).
var CDF53AnalysisLowpass = [5]float64{
	-0.176776695296637,
	0.353553390593274,
	1.060660171779821,
	0.353553390593274,
	-0.176776695296637,
}

// CDF53AnalysisHighpass holds the 3 analysis highpass taps.
var CDF53AnalysisHighpass = [3]float64{
	-0.353553390593274,
	0.707106781186547,
	-0.353553390593274,
}

// AnalysisFilters returns the analysis lowpass and highpass taps for a CDF
// kernel, centered at len/2. It returns nil slices for kernels without a
// published convolution form here (Haar, Daub4 — those are trivially their
// own documentation).
func AnalysisFilters(k Kernel) (lo, hi []float64) {
	switch k {
	case CDF97:
		return CDF97AnalysisLowpass[:], CDF97AnalysisHighpass[:]
	case CDF53:
		return CDF53AnalysisLowpass[:], CDF53AnalysisHighpass[:]
	}
	return nil, nil
}

// ConvolveStep computes one analysis level by direct convolution with
// whole-sample symmetric extension, writing [approx | detail] into dst.
// It is the reference implementation; production code uses the lifting
// path (ForwardStep), which the tests verify against this.
//
// Approximation coefficients a[i] come from filtering at even sample
// positions 2i; detail coefficients d[i] from odd positions 2i+1, matching
// the lifting layout for both even and odd lengths.
func ConvolveStep(k Kernel, src, dst []float64) bool {
	lo, hi := AnalysisFilters(k)
	if lo == nil {
		return false
	}
	n := len(src)
	if n < 2 {
		copy(dst, src)
		return true
	}
	na := approxLen(n)
	loC := len(lo) / 2
	hiC := len(hi) / 2
	for i := 0; i < na; i++ {
		center := 2 * i
		var sum float64
		for t, c := range lo {
			sum += c * src[reflect(center+t-loC, n)]
		}
		dst[i] = sum
	}
	for i := 0; i < n-na; i++ {
		center := 2*i + 1
		var sum float64
		for t, c := range hi {
			sum += c * src[reflect(center+t-hiC, n)]
		}
		dst[na+i] = sum
	}
	return true
}

// reflect maps an out-of-range index into [0, n-1] using whole-sample
// symmetric extension. n must be >= 2. Indices more than n-1 outside the
// range are folded repeatedly (only needed for pathological n).
func reflect(i, n int) int {
	for i < 0 || i >= n {
		if i < 0 {
			i = -i
		}
		if i >= n {
			i = 2*(n-1) - i
		}
	}
	return i
}
