package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRMSE(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{1, 2, 3, 4}
	r, err := RMSE(a, b)
	if err != nil || r != 0 {
		t.Errorf("RMSE identical = %g, %v", r, err)
	}
	b = []float64{2, 3, 4, 5}
	r, err = RMSE(a, b)
	if err != nil || math.Abs(r-1) > 1e-15 {
		t.Errorf("RMSE uniform-offset-1 = %g, want 1", r)
	}
	if _, err := RMSE(a, b[:3]); err != ErrLengthMismatch {
		t.Errorf("expected ErrLengthMismatch, got %v", err)
	}
	if r, err := RMSE(nil, nil); err != nil || r != 0 {
		t.Errorf("RMSE(nil,nil) = %g, %v", r, err)
	}
}

func TestLInf(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, -3, 2}
	l, err := LInf(a, b)
	if err != nil || l != 3 {
		t.Errorf("LInf = %g, want 3", l)
	}
	if _, err := LInf(a, b[:2]); err != ErrLengthMismatch {
		t.Error("expected length mismatch")
	}
}

func TestRange(t *testing.T) {
	if r := Range([]float64{3, -2, 5}); r != 7 {
		t.Errorf("Range = %g, want 7", r)
	}
	if r := Range(nil); r != 0 {
		t.Errorf("Range(nil) = %g, want 0", r)
	}
	if r := Range([]float64{math.NaN(), 1, 2}); r != 1 {
		t.Errorf("Range with NaN = %g, want 1", r)
	}
	if r := Range([]float64{math.NaN()}); r != 0 {
		t.Errorf("Range(all NaN) = %g, want 0", r)
	}
}

func TestNRMSEAndNLInf(t *testing.T) {
	orig := []float64{0, 10}  // range 10
	recon := []float64{1, 10} // rmse = sqrt(1/2), linf = 1
	n, err := NRMSE(orig, recon)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(0.5) / 10
	if math.Abs(n-want) > 1e-15 {
		t.Errorf("NRMSE = %g, want %g", n, want)
	}
	l, err := NLInf(orig, recon)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-0.1) > 1e-15 {
		t.Errorf("NLInf = %g, want 0.1", l)
	}
}

func TestNormalizeZeroRange(t *testing.T) {
	orig := []float64{5, 5, 5}
	if n, _ := NRMSE(orig, orig); n != 0 {
		t.Errorf("NRMSE identical constant = %g, want 0", n)
	}
	if n, _ := NRMSE(orig, []float64{5, 5, 6}); !math.IsInf(n, 1) {
		t.Errorf("NRMSE zero-range mismatch = %g, want +Inf", n)
	}
}

func TestPSNR(t *testing.T) {
	orig := []float64{0, 1}
	if p, _ := PSNR(orig, orig); !math.IsInf(p, 1) {
		t.Errorf("PSNR identical = %g, want +Inf", p)
	}
	recon := []float64{0.1, 1}
	p, err := PSNR(orig, recon)
	if err != nil {
		t.Fatal(err)
	}
	// rmse = 0.1/sqrt(2), range 1, psnr = 20*log10(sqrt(2)/0.1) ~ 23.01
	want := 20 * math.Log10(math.Sqrt2/0.1)
	if math.Abs(p-want) > 1e-9 {
		t.Errorf("PSNR = %g, want %g", p, want)
	}
}

func TestAccumulatorMatchesSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 1000
	orig := make([]float64, n)
	recon := make([]float64, n)
	for i := range orig {
		orig[i] = rng.NormFloat64() * 5
		recon[i] = orig[i] + rng.NormFloat64()*0.1
	}
	ac := NewAccumulator()
	// Feed in 3 uneven chunks.
	if err := ac.Add(orig[:100], recon[:100]); err != nil {
		t.Fatal(err)
	}
	if err := ac.Add(orig[100:700], recon[100:700]); err != nil {
		t.Fatal(err)
	}
	if err := ac.Add(orig[700:], recon[700:]); err != nil {
		t.Fatal(err)
	}
	wantNRMSE, _ := NRMSE(orig, recon)
	wantNLInf, _ := NLInf(orig, recon)
	if math.Abs(ac.NRMSE()-wantNRMSE) > 1e-12 {
		t.Errorf("accumulator NRMSE %g vs single-pass %g", ac.NRMSE(), wantNRMSE)
	}
	if math.Abs(ac.NLInf()-wantNLInf) > 1e-12 {
		t.Errorf("accumulator NLInf %g vs single-pass %g", ac.NLInf(), wantNLInf)
	}
	if ac.n != int64(n) {
		t.Errorf("n = %d, want %d", ac.n, n)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	ac := NewAccumulator()
	if ac.NRMSE() != 0 || ac.NLInf() != 0 || ac.DataRange() != 0 {
		t.Errorf("empty accumulator: NRMSE=%g NLInf=%g range=%g", ac.NRMSE(), ac.NLInf(), ac.DataRange())
	}
	if err := ac.Add([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("expected ErrLengthMismatch, got %v", err)
	}
}

// Property: NRMSE <= NLInf for any data (mean deviation cannot exceed max).
func TestQuickNRMSELeqNLInf(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 2
		orig := make([]float64, n)
		recon := make([]float64, n)
		for i := range orig {
			orig[i] = rng.NormFloat64()
			recon[i] = orig[i] + rng.NormFloat64()*0.01
		}
		a, _ := NRMSE(orig, recon)
		b, _ := NLInf(orig, recon)
		return a <= b+1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: metrics are invariant under a common shift of both signals and
// scale linearly under a common positive scaling (normalized metrics are
// scale-invariant).
func TestQuickNormalizedScaleInvariance(t *testing.T) {
	prop := func(seed int64, scaleRaw uint8, shiftRaw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := float64(scaleRaw)/16 + 0.5
		shift := float64(shiftRaw)
		n := 64
		orig := make([]float64, n)
		recon := make([]float64, n)
		origT := make([]float64, n)
		reconT := make([]float64, n)
		for i := range orig {
			orig[i] = rng.NormFloat64()
			recon[i] = orig[i] + rng.NormFloat64()*0.05
			origT[i] = orig[i]*scale + shift
			reconT[i] = recon[i]*scale + shift
		}
		a, _ := NRMSE(orig, recon)
		b, _ := NRMSE(origT, reconT)
		return math.Abs(a-b) < 1e-9*(1+math.Abs(a))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// LInf returns max_i |a_i - b_i|: the single-pass reference for
// Accumulator.LInf.
func LInf(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m, nil
}

// NLInf returns the L-infinity norm normalized by the range of orig: the
// single-pass reference for Accumulator.NLInf.
func NLInf(orig, recon []float64) (float64, error) {
	l, err := LInf(orig, recon)
	if err != nil {
		return 0, err
	}
	return normalize(l, Range(orig)), nil
}
