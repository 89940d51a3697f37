package tornado

import (
	"math"
	"testing"

	"stwave/internal/grid"
)

func testModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(DefaultConfig(24, 24, 16))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	cfg := DefaultConfig(8, 8, 8)
	cfg.Nx = 1
	if _, err := NewModel(cfg); err == nil {
		t.Error("expected error for tiny grid")
	}
	cfg = DefaultConfig(8, 8, 8)
	cfg.Lz = 0
	if _, err := NewModel(cfg); err == nil {
		t.Error("expected error for zero domain")
	}
	cfg = DefaultConfig(8, 8, 8)
	cfg.CoreRadius = -5
	if _, err := NewModel(cfg); err == nil {
		t.Error("expected error for negative core radius")
	}
}

func TestSwirlProfile(t *testing.T) {
	rc, vmax := 350.0, 120.0
	// Peak at the core radius.
	if got := swirl(rc, rc, vmax); math.Abs(got-vmax) > 1e-9 {
		t.Errorf("swirl at rc = %g, want %g", got, vmax)
	}
	// Zero at the axis.
	if got := swirl(0, rc, vmax); got != 0 {
		t.Errorf("swirl at axis = %g", got)
	}
	// Solid-body-like inside, decaying outside.
	if swirl(rc/4, rc, vmax) >= vmax {
		t.Error("swirl inside core should be below peak")
	}
	far := swirl(10*rc, rc, vmax)
	if far >= vmax/5 || far <= 0 {
		t.Errorf("far-field swirl = %g, want small positive (potential-vortex tail)", far)
	}
	// The profile has a single maximum near rc: values bracketing rc are lower.
	if swirl(0.8*rc, rc, vmax) > vmax || swirl(1.25*rc, rc, vmax) > vmax {
		t.Error("swirl exceeds nominal peak away from rc")
	}
}

func TestVortexWindsAroundCenter(t *testing.T) {
	m := testModel(t)
	cfg := m.Config()
	cx, cy := m.center(0)
	z := cfg.Lz * 0.05 // near surface where the vortex is strongest
	// Sample at 4 compass points at the core radius: tangential flow means
	// velocity is mostly perpendicular to the radius vector.
	r := cfg.CoreRadius
	points := [][2]float64{{cx + r, cy}, {cx - r, cy}, {cx, cy + r}, {cx, cy - r}}
	for _, p := range points {
		u, v, _ := m.VelocityAt(p[0], p[1], z, 0)
		dx, dy := p[0]-cx, p[1]-cy
		speed := math.Hypot(u, v)
		if speed < 20 {
			t.Errorf("wind speed %g m/s at core radius, expected violent rotation", speed)
		}
		// Radial component must be small relative to total (mostly swirl).
		radial := (u*dx + v*dy) / r
		if math.Abs(radial) > 0.8*speed {
			t.Errorf("flow at (%g,%g) predominantly radial (%g of %g)", p[0], p[1], radial, speed)
		}
	}
}

func TestVortexTranslates(t *testing.T) {
	m := testModel(t)
	cx0, cy0 := m.center(0)
	cx1, cy1 := m.center(100)
	wantDx := m.Config().TranslationX * 100
	wantDy := m.Config().TranslationY * 100
	if math.Abs(cx1-cx0-wantDx) > 1e-9 || math.Abs(cy1-cy0-wantDy) > 1e-9 {
		t.Errorf("center moved (%g,%g), want (%g,%g)", cx1-cx0, cy1-cy0, wantDx, wantDy)
	}
}

func TestPressurePerturbationNegativeAtCore(t *testing.T) {
	m := testModel(t)
	cfg := m.Config()
	cx, cy := m.center(0)
	z := cfg.Lz * 0.05
	pCore := m.PressurePerturbationAt(cx, cy, z, 0)
	pFar := m.PressurePerturbationAt(cx+20*cfg.CoreRadius, cy, z, 0)
	if pCore >= 0 {
		t.Errorf("core pressure perturbation %g, want strongly negative", pCore)
	}
	if math.Abs(pFar) > math.Abs(pCore)/10 {
		t.Errorf("far-field pressure %g not small relative to core %g", pFar, pCore)
	}
	// F5-scale deficit: rho * vmax^2 ~ 1.1 * 120^2 ~ 16 kPa.
	if pCore > -5000 {
		t.Errorf("core deficit %g Pa too weak for an F5 vortex", pCore)
	}
}

func TestCloudMixingRatioStructure(t *testing.T) {
	m := testModel(t)
	cfg := m.Config()
	cx, cy := m.center(0)
	// In the updraft core at mid level: cloudy.
	qCore := m.CloudMixingRatioAt(cx, cy, 0.5*cfg.Lz, 0)
	// Near the surface far from the vortex: clear.
	qClear := m.CloudMixingRatioAt(cx+0.45*cfg.Lx, cy, 0.02*cfg.Lz, 0)
	if qCore < 1 {
		t.Errorf("core cloud mixing ratio %g, want >= 1 g/kg", qCore)
	}
	if qClear > 0.3 {
		t.Errorf("clear-air mixing ratio %g, want near zero", qClear)
	}
	// Never negative anywhere.
	q := m.CloudMixingRatio(0)
	for i, v := range q.Data {
		if v < 0 {
			t.Fatalf("negative mixing ratio %g at %d", v, i)
		}
	}
}

func TestSampledFieldsHaveConfiguredDims(t *testing.T) {
	m := testModel(t)
	for name, f := range map[string]*grid.Field3D{
		"vx":    m.VelocityX(0),
		"vz":    m.VelocityZ(0),
		"p":     m.PressurePerturbation(0),
		"cloud": m.CloudMixingRatio(0),
		"ens":   m.Enstrophy(0),
	} {
		if f.Dims.Nx != 24 || f.Dims.Ny != 24 || f.Dims.Nz != 16 {
			t.Errorf("%s dims = %v", name, f.Dims)
		}
	}
}

func TestEnstrophyPeaksNearVortex(t *testing.T) {
	m := testModel(t)
	ens := m.Enstrophy(0)
	cfg := m.Config()
	cx, cy := m.center(0)
	// Grid index of the vortex center.
	ci := int(cx / cfg.Lx * float64(cfg.Nx))
	cj := int(cy / cfg.Ly * float64(cfg.Ny))
	var coreMax float64
	for dj := -3; dj <= 3; dj++ {
		for di := -3; di <= 3; di++ {
			i, j := ci+di, cj+dj
			if i < 0 || j < 0 || i >= cfg.Nx || j >= cfg.Ny {
				continue
			}
			if v := ens.At(i, j, 0); v > coreMax {
				coreMax = v
			}
		}
	}
	// A far corner sample.
	far := ens.At((ci+cfg.Nx/2)%cfg.Nx, (cj+cfg.Ny/2)%cfg.Ny, 0)
	if coreMax <= far {
		t.Errorf("core enstrophy %g not above far-field %g", coreMax, far)
	}
}

func TestCurlMagnitudeSquaredOnRigidRotation(t *testing.T) {
	// u = -Ωy, v = Ωx has curl (0,0,2Ω) everywhere: |ω|² = 4Ω².
	n := 8
	omega := 0.5
	u := grid.NewField3D(n, n, n)
	v := grid.NewField3D(n, n, n)
	w := grid.NewField3D(n, n, n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				u.Set(x, y, z, -omega*float64(y))
				v.Set(x, y, z, omega*float64(x))
			}
		}
	}
	ens := CurlMagnitudeSquared(u, v, w, 1, 1, 1)
	want := 4 * omega * omega
	for i, got := range ens.Data {
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("|curl|²[%d] = %g, want %g", i, got, want)
		}
	}
}

// The temporal-coherence contrast that drives the paper's Tornado findings:
// consecutive tornado slices must correlate less than Ghost-like smooth
// fields at the same cadence (the turbulent component decorrelates fast).
func TestTornadoHasLimitedTemporalCoherence(t *testing.T) {
	m := testModel(t)
	a := m.VelocityX(0)
	b := m.VelocityX(8) // 8 seconds apart
	var num, da, db float64
	am, bm := mean(a.Data), mean(b.Data)
	for i := range a.Data {
		x := a.Data[i] - am
		y := b.Data[i] - bm
		num += x * y
		da += x * x
		db += y * y
	}
	corr := num / math.Sqrt(da*db)
	if corr > 0.999 {
		t.Errorf("tornado slices 8s apart correlate at %.4f — too coherent to exercise the paper's negative results", corr)
	}
	if corr < 0.2 {
		t.Errorf("tornado slices 8s apart correlate at %.4f — not coherent enough to be a plausible simulation output", corr)
	}
}

func mean(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

func TestDeterministic(t *testing.T) {
	m1 := testModel(t)
	m2 := testModel(t)
	a := m1.VelocityX(5)
	b := m2.VelocityX(5)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same config produced different fields")
		}
	}
}

// Every grid sampler against its pointwise oracle over the whole grid, on
// non-cubic and odd dims and at a time large enough that ωt dominates the
// turbulence phase. The grid path sums the turbulence with synth's lattice
// kernel; the tolerance is that kernel's 1e-11·Σ|amp| (Σ|amp| <= 48: one
// per mode) times each field's sensitivity to the turbulence term.
func TestGridSamplersMatchPointEvaluation(t *testing.T) {
	const kernelTol = 1e-11 * 48
	for _, dims := range [][3]int{{24, 24, 16}, {17, 5, 3}, {8, 6, 4}} {
		m, err := NewModel(DefaultConfig(dims[0], dims[1], dims[2]))
		if err != nil {
			t.Fatal(err)
		}
		velTol := kernelTol * m.cfg.TurbulenceAmplitude
		for _, tm := range []float64{0, 2.5, 9999.75} {
			u, v, w := m.Velocity(tm)
			ux, wz := m.VelocityX(tm), m.VelocityZ(tm)
			p, q := m.PressurePerturbation(tm), m.CloudMixingRatio(tm)
			q32 := grid.NewField3D32(dims[0], dims[1], dims[2])
			if err := CloudMixingRatioInto(m, q32, tm); err != nil {
				t.Fatal(err)
			}
			check := func(name string, i, j, k int, got, want, tol float64) {
				t.Helper()
				if math.Abs(got-want) > tol {
					t.Fatalf("%v t=%g: %s(%d,%d,%d) = %v, point evaluation %v (tol %.3g)", dims, tm, name, i, j, k, got, want, tol)
				}
			}
			for k := 0; k < dims[2]; k++ {
				for j := 0; j < dims[1]; j++ {
					for i := 0; i < dims[0]; i++ {
						x, y, z := m.CellX(i), m.CellY(j), m.CellZ(k)
						wu, wv, ww := m.VelocityAt(x, y, z, tm)
						check("Velocity.u", i, j, k, u.At(i, j, k), wu, velTol)
						check("Velocity.v", i, j, k, v.At(i, j, k), wv, velTol)
						check("Velocity.w", i, j, k, w.At(i, j, k), ww, velTol)
						check("VelocityX", i, j, k, ux.At(i, j, k), wu, velTol)
						check("VelocityZ", i, j, k, wz.At(i, j, k), ww, velTol)
						check("PressurePerturbation", i, j, k, p.At(i, j, k), m.PressurePerturbationAt(x, y, z, tm), kernelTol*pressureTurbulence)
						// dq/dw <= 3.2/(4·1.5) < 1.
						wq := m.CloudMixingRatioAt(x, y, z, tm)
						check("CloudMixingRatio", i, j, k, q.At(i, j, k), wq, velTol)
						if got, want := q32.At(i, j, k), float32(wq); got != want &&
							got != math.Nextafter32(want, float32(math.Inf(1))) && got != math.Nextafter32(want, float32(math.Inf(-1))) {
							t.Fatalf("%v t=%g: CloudMixingRatioInto[float32](%d,%d,%d) = %v, point evaluation %v", dims, tm, i, j, k, got, want)
						}
					}
				}
			}
		}
	}
}

func TestCloudMixingRatioIntoRejectsForeignDims(t *testing.T) {
	m := testModel(t)
	if err := CloudMixingRatioInto(m, grid.NewField3D(24, 24, 8), 0); err == nil {
		t.Error("CloudMixingRatioInto accepted a grid that is not the model's")
	}
}

func BenchmarkCloudMixingRatioInto(b *testing.B) {
	m, err := NewModel(DefaultConfig(64, 64, 64))
	if err != nil {
		b.Fatal(err)
	}
	dst := grid.NewField3D(64, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CloudMixingRatioInto(m, dst, 2.5); err != nil {
			b.Fatal(err)
		}
	}
}
