package ghost

import (
	"math"
	"testing"

	"stwave/internal/fbits"
	"stwave/internal/grid"
)

func TestNewSolverValidation(t *testing.T) {
	if _, err := NewSolver(Config{N: 12, Dt: 0.01}); err == nil {
		t.Error("expected error for non-power-of-two N")
	}
	if _, err := NewSolver(Config{N: 4, Dt: 0.01}); err == nil {
		t.Error("expected error for N < 8")
	}
	if _, err := NewSolver(Config{N: 16, Dt: 0}); err == nil {
		t.Error("expected error for zero Dt")
	}
	if _, err := NewSolver(Config{N: 16, Dt: 0.01, Nu: -1}); err == nil {
		t.Error("expected error for negative Nu")
	}
}

func TestDivergenceFreeInitially(t *testing.T) {
	s, err := NewSolver(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if d := s.MaxDivergence(); d > 1e-10 {
		t.Errorf("initial divergence %g, want ~0", d)
	}
}

func TestDivergenceFreeAfterSteps(t *testing.T) {
	s, err := NewSolver(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20)
	if d := s.MaxDivergence(); d > 1e-8 {
		t.Errorf("divergence after 20 steps %g, want ~0", d)
	}
	if s.steps != 20 {
		t.Errorf("Steps = %d", s.steps)
	}
	if math.Abs(s.Time()-0.2) > 1e-12 {
		t.Errorf("Time = %g, want 0.2", s.Time())
	}
}

// The 2D Taylor-Green vortex embedded in 3D is an exact Navier-Stokes
// solution whose energy decays as exp(-4 nu t). With forcing off and the
// pure TG initial condition, the solver must track that rate.
func TestTaylorGreenDecayRate(t *testing.T) {
	cfg := Config{N: 16, Nu: 0.1, Dt: 0.005, ForcingAmplitude: 0}
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Override the initial condition with the pure 2D TG field.
	n := s.n
	h := 2 * math.Pi / float64(n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			Y := float64(y) * h
			for x := 0; x < n; x++ {
				X := float64(x) * h
				idx := (z*n+y)*n + x
				s.uh[0][idx] = complex(math.Sin(X)*math.Cos(Y), 0)
				s.uh[1][idx] = complex(-math.Cos(X)*math.Sin(Y), 0)
				s.uh[2][idx] = 0
			}
		}
	}
	for c := 0; c < 3; c++ {
		s.plan.Forward(s.uh[c])
	}
	s.dealias(&s.uh)
	e0 := s.KineticEnergy()
	steps := 100
	s.Run(steps)
	eT := s.KineticEnergy()
	tFinal := float64(steps) * cfg.Dt
	want := e0 * math.Exp(-4*cfg.Nu*tFinal)
	if rel := math.Abs(eT-want) / want; rel > 0.01 {
		t.Errorf("TG energy after t=%.2f: %g, analytic %g (rel err %.3g)", tFinal, eT, want, rel)
	}
}

func TestForcedRunStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("long solver run")
	}
	s, err := NewSolver(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Run(20)
		e := s.KineticEnergy()
		if math.IsNaN(e) || e > 100 {
			t.Fatalf("energy diverged to %g after %d steps", e, s.steps)
		}
		if cfl := s.CFL(); cfl > 1.5 {
			t.Fatalf("CFL %g exceeded stability range", cfl)
		}
	}
	if s.KineticEnergy() <= 0 {
		t.Error("forced flow lost all energy")
	}
}

func TestVelocityFieldsMatchSpectralState(t *testing.T) {
	s, err := NewSolver(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	u, v, w := s.Velocity()
	ux := s.VelocityX()
	for i := range u.Data {
		if u.Data[i] != ux.Data[i] {
			t.Fatal("VelocityX disagrees with Velocity()[0]")
		}
	}
	// Physical-space energy must match spectral KineticEnergy (Parseval).
	var e float64
	for i := range u.Data {
		e += u.Data[i]*u.Data[i] + v.Data[i]*v.Data[i] + w.Data[i]*w.Data[i]
	}
	e = 0.5 * e / float64(len(u.Data))
	if rel := math.Abs(e-s.KineticEnergy()) / (s.KineticEnergy() + 1e-300); rel > 1e-10 {
		t.Errorf("physical energy %g vs spectral %g", e, s.KineticEnergy())
	}
}

func TestEnstrophyNonNegativeAndNonTrivial(t *testing.T) {
	s, err := NewSolver(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	ens := s.Enstrophy()
	var sum float64
	for _, v := range ens.Data {
		if v < 0 {
			t.Fatalf("negative enstrophy density %g", v)
		}
		sum += v
	}
	if sum == 0 {
		t.Error("enstrophy identically zero in a turbulent flow")
	}
}

// Enstrophy of the pure TG vortex has a closed form: ω_z = -2 sin x sin y,
// others zero, so |ω|² = 4 sin²x sin²y.
func TestEnstrophyMatchesTaylorGreenAnalytic(t *testing.T) {
	cfg := Config{N: 16, Nu: 0, Dt: 0.01, ForcingAmplitude: 0}
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := s.n
	h := 2 * math.Pi / float64(n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			Y := float64(y) * h
			for x := 0; x < n; x++ {
				X := float64(x) * h
				idx := (z*n+y)*n + x
				s.uh[0][idx] = complex(math.Sin(X)*math.Cos(Y), 0)
				s.uh[1][idx] = complex(-math.Cos(X)*math.Sin(Y), 0)
				s.uh[2][idx] = 0
			}
		}
	}
	for c := 0; c < 3; c++ {
		s.plan.Forward(s.uh[c])
	}
	ens := s.Enstrophy()
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			Y := float64(y) * h
			for x := 0; x < n; x++ {
				X := float64(x) * h
				want := 4 * math.Sin(X) * math.Sin(X) * math.Sin(Y) * math.Sin(Y)
				got := ens.At(x, y, z)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("enstrophy(%d,%d,%d) = %g, want %g", x, y, z, got, want)
				}
			}
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() float64 {
		s, err := NewSolver(DefaultConfig(16))
		if err != nil {
			t.Fatal(err)
		}
		s.Run(10)
		return s.KineticEnergy()
	}
	if run() != run() {
		t.Error("identical configs produced different runs")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg1 := DefaultConfig(16)
	cfg2 := DefaultConfig(16)
	cfg2.Seed = 2
	s1, err := NewSolver(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSolver(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	s1.Run(5)
	s2.Run(5)
	u1 := s1.VelocityX()
	u2 := s2.VelocityX()
	same := true
	for i := range u1.Data {
		if u1.Data[i] != u2.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fields")
	}
}

func TestEnergySpectrumSumsToTotal(t *testing.T) {
	s, err := NewSolver(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	spec := s.EnergySpectrum()
	var sum float64
	for _, e := range spec {
		sum += e
	}
	total := s.KineticEnergy()
	// Modes beyond the n/2 shell cap are dealiased to zero, so the shell
	// sum equals the total energy.
	if math.Abs(sum-total)/total > 1e-10 {
		t.Errorf("spectrum sums to %g, total energy %g", sum, total)
	}
	for k, e := range spec {
		if e < 0 {
			t.Fatalf("negative spectral energy %g at shell %d", e, k)
		}
	}
}

func TestEnergySpectrumDecaysAtHighK(t *testing.T) {
	if testing.Short() {
		t.Skip("long solver run")
	}
	s, err := NewSolver(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(150) // develop the cascade
	spec := s.EnergySpectrum()
	// Energy at the largest resolved shells must be far below the
	// energy-containing range (viscous dissipation).
	lowK := spec[1] + spec[2]
	highK := spec[len(spec)-2] + spec[len(spec)-3]
	if highK >= lowK*0.05 {
		t.Errorf("no spectral decay: low-k %g vs high-k %g", lowK, highK)
	}
}

func TestIntegralScale(t *testing.T) {
	s, err := NewSolver(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20)
	l := s.IntegralScale()
	// Forced at k=1 on a 2π domain: the integral scale is order the box
	// size but must be strictly inside (0, 2π].
	if l <= 0 || l > 2*math.Pi+1e-9 {
		t.Errorf("integral scale %g outside (0, 2π]", l)
	}
}

func TestScalarValidation(t *testing.T) {
	s, err := NewSolver(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableScalar(ScalarConfig{Kappa: -1}); err == nil {
		t.Error("expected error for negative diffusivity")
	}
	if s.HasScalar() {
		t.Error("failed EnableScalar must not attach a scalar")
	}
	if s.Scalar() != nil || s.ScalarVariance() != 0 {
		t.Error("no-scalar accessors must return zero values")
	}
}

func TestScalarPureDiffusionDecay(t *testing.T) {
	// With zero velocity and no mean gradient, θ = sin(x) decays as
	// exp(-κt) (each mode k decays at κk²; k=1 here).
	cfg := Config{N: 16, Nu: 0.05, Dt: 0.01, ForcingAmplitude: 0}
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Zero the velocity entirely.
	for c := 0; c < 3; c++ {
		for i := range s.uh[c] {
			s.uh[c][i] = 0
		}
	}
	kappa := 0.2
	if err := s.EnableScalar(ScalarConfig{Kappa: kappa}); err != nil {
		t.Fatal(err)
	}
	// Overwrite IC with a single k=1 mode for a clean analytic rate.
	n := s.n
	h := 2 * math.Pi / float64(n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				s.scalar.th[(z*n+y)*n+x] = complex(math.Sin(h*float64(x)), 0)
			}
		}
	}
	s.plan.Forward(s.scalar.th)
	v0 := s.ScalarVariance()
	steps := 100
	s.Run(steps)
	vT := s.ScalarVariance()
	tFinal := float64(steps) * cfg.Dt
	want := v0 * math.Exp(-2*kappa*tFinal) // variance decays at twice the amplitude rate
	if rel := math.Abs(vT-want) / want; rel > 0.01 {
		t.Errorf("scalar variance %g, analytic %g (rel err %.3g)", vT, want, rel)
	}
}

func TestScalarStaysBoundedInTurbulence(t *testing.T) {
	s, err := NewSolver(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableScalar(ScalarConfig{Kappa: 0.08, MeanGradient: 1}); err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	v := s.ScalarVariance()
	if math.IsNaN(v) || v <= 0 || v > 1e3 {
		t.Errorf("scalar variance %g after forced turbulent advection", v)
	}
	f := s.Scalar()
	if f == nil || f.Dims.Nx != 16 {
		t.Fatal("Scalar() field missing or wrong dims")
	}
	for i, val := range f.Data {
		if math.IsNaN(val) {
			t.Fatalf("NaN scalar at %d", i)
		}
	}
}

func TestScalarAdvectionConservesVarianceInviscid(t *testing.T) {
	// With κ=0 and no source, advection by an incompressible flow conserves
	// scalar variance (up to dealiasing loss, which is small over short
	// times).
	cfg := DefaultConfig(16)
	cfg.ForcingAmplitude = 0
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableScalar(ScalarConfig{Kappa: 0}); err != nil {
		t.Fatal(err)
	}
	v0 := s.ScalarVariance()
	s.Run(20)
	vT := s.ScalarVariance()
	if rel := math.Abs(vT-v0) / v0; rel > 0.05 {
		t.Errorf("inviscid scalar variance drifted %.3g (%g -> %g)", rel, v0, vT)
	}
}

// Velocity returns the physical-space velocity components as fresh fields.
func (s *Solver) Velocity() (u, v, w *grid.Field3D) {
	out := [3]*grid.Field3D{}
	for c := 0; c < 3; c++ {
		copy(s.phys[c], s.uh[c])
		s.plan.Inverse(s.phys[c])
		f := grid.NewField3D(s.n, s.n, s.n)
		for i := range f.Data {
			f.Data[i] = real(s.phys[c][i])
		}
		out[c] = f
	}
	return out[0], out[1], out[2]
}

// KineticEnergy returns the volume-averaged kinetic energy (1/2)<|u|²>,
// computed spectrally via Parseval.
func (s *Solver) KineticEnergy() float64 {
	total := float64(s.n * s.n * s.n)
	var e float64
	for c := 0; c < 3; c++ {
		for _, v := range s.uh[c] {
			e += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	return 0.5 * e / (total * total)
}

// MaxDivergence returns max_k |k·û(k)| / max_k |û(k)| — a normalized
// measure of how divergence-free the spectral state is (should be at
// round-off).
func (s *Solver) MaxDivergence() float64 {
	n := s.n
	var maxDiv, maxU float64
	for z := 0; z < n; z++ {
		kz := s.k[z]
		for y := 0; y < n; y++ {
			ky := s.k[y]
			base := (z*n + y) * n
			for x := 0; x < n; x++ {
				kx := s.k[x]
				idx := base + x
				div := complex(kx, 0)*s.uh[0][idx] + complex(ky, 0)*s.uh[1][idx] + complex(kz, 0)*s.uh[2][idx]
				if d := math.Hypot(real(div), imag(div)); d > maxDiv {
					maxDiv = d
				}
				for c := 0; c < 3; c++ {
					if m := math.Hypot(real(s.uh[c][idx]), imag(s.uh[c][idx])); m > maxU {
						maxU = m
					}
				}
			}
		}
	}
	if fbits.Zero(maxU) {
		return 0
	}
	return maxDiv / maxU
}

// CFL returns the current convective CFL number u_max * dt / dx; stable
// runs keep this below ~1.
func (s *Solver) CFL() float64 {
	var umax float64
	for c := 0; c < 3; c++ {
		copy(s.phys[c], s.uh[c])
		s.plan.Inverse(s.phys[c])
		for _, v := range s.phys[c] {
			if a := math.Abs(real(v)); a > umax {
				umax = a
			}
		}
	}
	dx := 2 * math.Pi / float64(s.n)
	return umax * s.cfg.Dt / dx
}

// ScalarVariance returns the volume-averaged scalar variance <θ²> - <θ>².
func (s *Solver) ScalarVariance() float64 {
	if s.scalar == nil {
		return 0
	}
	copy(s.scalar.physT, s.scalar.th)
	s.plan.Inverse(s.scalar.physT)
	total := float64(s.n * s.n * s.n)
	var sum, sumSq float64
	for _, v := range s.scalar.physT {
		r := real(v)
		sum += r
		sumSq += r * r
	}
	mean := sum / total
	return sumSq/total - mean*mean
}

// EnergySpectrum returns the shell-averaged kinetic energy spectrum E(k)
// for integer wavenumber shells k = 0 .. n/2: the energy of all spectral
// modes whose |k| rounds to the shell index, with the Parseval
// normalization matching KineticEnergy (sum over shells equals the total).
// Turbulence diagnostics use this to verify the forced cascade develops a
// decreasing spectrum toward the dissipation range.
func (s *Solver) EnergySpectrum() []float64 {
	n := s.n
	shells := n/2 + 1
	spec := make([]float64, shells)
	total := float64(n * n * n)
	norm := 0.5 / (total * total)
	for z := 0; z < n; z++ {
		kz := s.k[z]
		for y := 0; y < n; y++ {
			ky := s.k[y]
			base := (z*n + y) * n
			for x := 0; x < n; x++ {
				kx := s.k[x]
				shell := int(math.Round(math.Sqrt(kx*kx + ky*ky + kz*kz)))
				if shell >= shells {
					continue
				}
				idx := base + x
				var e float64
				for c := 0; c < 3; c++ {
					v := s.uh[c][idx]
					e += real(v)*real(v) + imag(v)*imag(v)
				}
				spec[shell] += e * norm
			}
		}
	}
	return spec
}

// IntegralScale returns the energy-weighted inverse wavenumber — a measure
// of the dominant eddy size, 2π/k_peak-ish, in domain units.
func (s *Solver) IntegralScale() float64 {
	spec := s.EnergySpectrum()
	var num, den float64
	for k := 1; k < len(spec); k++ {
		num += spec[k] / float64(k)
		den += spec[k]
	}
	if fbits.Zero(den) {
		return 0
	}
	return 2 * math.Pi * num / den
}
