package synth

import (
	"math"
	"testing"

	"stwave/internal/grid"
)

func TestNewFieldValidation(t *testing.T) {
	if _, err := NewField(Config{Modes: 0, MaxWavenumber: 4, TimeScale: 1}); err == nil {
		t.Error("expected error for zero modes")
	}
	if _, err := NewField(Config{Modes: 4, MaxWavenumber: 0, TimeScale: 1}); err == nil {
		t.Error("expected error for zero MaxWavenumber")
	}
	if _, err := NewField(Config{Modes: 4, MaxWavenumber: 4, TimeScale: 0}); err == nil {
		t.Error("expected error for zero TimeScale")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	f1, err := NewField(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewField(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		x := float64(i) * 0.37
		if f1.ScalarAt(x, 2*x, 0.5*x, 1.0) != f2.ScalarAt(x, 2*x, 0.5*x, 1.0) {
			t.Fatal("same seed produced different fields")
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 99
	f3, err := NewField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f1.ScalarAt(1, 2, 3, 4) == f3.ScalarAt(1, 2, 3, 4) {
		t.Error("different seeds produced identical value (vanishingly unlikely)")
	}
}

// The synthesized velocity must be (analytically) divergence-free: check
// numerically with central differences.
func TestVelocityDivergenceFree(t *testing.T) {
	f, err := NewField(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := 1e-5
	checkAt := func(x, y, z, tt float64) {
		u1, _, _ := f.VelocityAt(x+h, y, z, tt)
		u0, _, _ := f.VelocityAt(x-h, y, z, tt)
		_, v1, _ := f.VelocityAt(x, y+h, z, tt)
		_, v0, _ := f.VelocityAt(x, y-h, z, tt)
		_, _, w1 := f.VelocityAt(x, y, z+h, tt)
		_, _, w0 := f.VelocityAt(x, y, z-h, tt)
		div := (u1-u0)/(2*h) + (v1-v0)/(2*h) + (w1-w0)/(2*h)
		// Scale tolerance by a typical gradient magnitude.
		scale := math.Abs(u1-u0)/(2*h) + math.Abs(v1-v0)/(2*h) + math.Abs(w1-w0)/(2*h) + 1
		if math.Abs(div) > 1e-4*scale {
			t.Errorf("divergence %g at (%g,%g,%g,t=%g)", div, x, y, z, tt)
		}
	}
	for i := 0; i < 10; i++ {
		fi := float64(i)
		checkAt(0.3*fi, 1.1*fi, 0.7*fi, 0.5*fi)
	}
}

// Temporal coherence knob: a larger TimeScale must yield higher correlation
// between consecutive samples.
func TestTimeScaleControlsTemporalCoherence(t *testing.T) {
	corr := func(timeScale float64) float64 {
		cfg := DefaultConfig()
		cfg.TimeScale = timeScale
		f, err := NewField(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, errA := f.SampleScalar(12, 12, 12, 0)
		b, errB := f.SampleScalar(12, 12, 12, 5.0)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		var num, da, db float64
		for i := range a.Data {
			num += a.Data[i] * b.Data[i]
			da += a.Data[i] * a.Data[i]
			db += b.Data[i] * b.Data[i]
		}
		return num / math.Sqrt(da*db)
	}
	coherent := corr(50)
	incoherent := corr(0.5)
	if coherent <= incoherent {
		t.Errorf("correlation with TimeScale=50 (%.3f) not above TimeScale=0.5 (%.3f)", coherent, incoherent)
	}
	if coherent < 0.9 {
		t.Errorf("long TimeScale correlation %.3f, want > 0.9", coherent)
	}
}

// sumAmp bounds |ScalarAt| and every velocity component: the error budget
// of the lattice kernel is stated relative to it.
func sumAmp(f *Field) float64 {
	var s float64
	for _, m := range f.modes {
		s += math.Abs(m.amp)
	}
	return s
}

// withinOneUlp32 reports whether got is want or one of its float32
// neighbours.
func withinOneUlp32(got, want float32) bool {
	return got == want ||
		got == math.Nextafter32(want, float32(math.Inf(1))) ||
		got == math.Nextafter32(want, float32(math.Inf(-1)))
}

// The lattice kernel against the pointwise oracle, over the whole grid:
// non-cubic and odd dims, times large enough that ωt dominates the phase,
// both stores, both components the Sample* methods expose, and both the
// default and the benchmark's 8-mode ensemble.
func TestSampleMatchesPointEvaluation(t *testing.T) {
	dims := []grid.Dims{{Nx: 8, Ny: 6, Nz: 4}, {Nx: 17, Ny: 5, Nz: 3}, {Nx: 64, Ny: 64, Nz: 64}}
	for _, modes := range []int{DefaultConfig().Modes, 8} {
		cfg := DefaultConfig()
		cfg.Modes = modes
		f, err := NewField(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-11 * sumAmp(f)
		for _, d := range dims {
			if testing.Short() && d.Len() > 1<<12 {
				continue
			}
			lat := UnitLattice(d)
			s32 := grid.NewField3D32(d.Nx, d.Ny, d.Nz)
			for _, tm := range []float64{0, 2.5, 9999.75} {
				s64, err := f.SampleScalar(d.Nx, d.Ny, d.Nz, tm)
				if err == nil {
					err = f.SampleScalarInto32(s32, tm)
				}
				if err != nil {
					t.Fatal(err)
				}
				u64, err := f.SampleVelocityX(d.Nx, d.Ny, d.Nz, tm)
				if err != nil {
					t.Fatal(err)
				}
				var worstS, worstU float64
				for z := 0; z < d.Nz; z++ {
					for y := 0; y < d.Ny; y++ {
						for x := 0; x < d.Nx; x++ {
							X, Y, Z := float64(x)*lat.Hx, float64(y)*lat.Hy, float64(z)*lat.Hz
							want := f.ScalarAt(X, Y, Z, tm)
							worstS = math.Max(worstS, math.Abs(s64.At(x, y, z)-want))
							if got := s32.At(x, y, z); !withinOneUlp32(got, float32(want)) {
								t.Fatalf("%d modes %v t=%g: f32 sample (%d,%d,%d) = %g, oracle %g", modes, d, tm, x, y, z, got, float32(want))
							}
							wantU, _, _ := f.VelocityAt(X, Y, Z, tm)
							worstU = math.Max(worstU, math.Abs(u64.At(x, y, z)-wantU))
						}
					}
				}
				if worstS > tol || worstU > tol {
					t.Errorf("%d modes %v t=%g: max |grid − oracle| scalar %.3g, velocity %.3g, want <= %.3g", modes, d, tm, worstS, worstU, tol)
				}
			}
		}
	}
}

func TestScalarWindow(t *testing.T) {
	f, err := NewField(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := f.ScalarWindow(6, 6, 6, 5, 10, 2)
	if w.Len() != 5 {
		t.Fatalf("window len = %d", w.Len())
	}
	if w.Times[0] != 10 || w.Times[4] != 18 {
		t.Errorf("times = %v", w.Times)
	}
	// Slices must differ over time but not wildly (coherence).
	var diff, norm float64
	for i := range w.Slices[0].Data {
		d := w.Slices[1].Data[i] - w.Slices[0].Data[i]
		diff += d * d
		norm += w.Slices[0].Data[i] * w.Slices[0].Data[i]
	}
	if diff == 0 {
		t.Error("consecutive slices identical")
	}
	if diff > norm {
		t.Error("consecutive slices essentially uncorrelated at default settings")
	}
}

func TestSpectrumSlopeDampsHighK(t *testing.T) {
	// With a steep slope, the field is dominated by the lowest wavenumber
	// modes, so its value changes slowly in space.
	cfg := DefaultConfig()
	cfg.SpectrumSlope = 4
	smoothF, err := NewField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SpectrumSlope = 0
	roughF, err := NewField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	variation := func(f *Field) float64 {
		var v float64
		prev := f.ScalarAt(0, 0, 0, 0)
		for i := 1; i <= 200; i++ {
			x := float64(i) * 0.05
			cur := f.ScalarAt(x, 0, 0, 0)
			v += math.Abs(cur - prev)
			prev = cur
		}
		return v
	}
	// Normalize by field amplitude.
	amp := func(f *Field) float64 {
		var a float64
		for i := 0; i < 100; i++ {
			a += math.Abs(f.ScalarAt(float64(i)*0.173, float64(i)*0.311, 0, 0))
		}
		return a / 100
	}
	smoothVar := variation(smoothF) / amp(smoothF)
	roughVar := variation(roughF) / amp(roughF)
	if smoothVar >= roughVar {
		t.Errorf("steep-spectrum variation %.3g not below flat-spectrum %.3g", smoothVar, roughVar)
	}
}
