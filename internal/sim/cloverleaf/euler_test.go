package cloverleaf

import (
	"math"
	"testing"

	"stwave/internal/grid"
)

func TestNewSolverValidation(t *testing.T) {
	if _, err := NewSolver(Config{N: 2, CFL: 0.4, AmbientDensity: 1, AmbientEnergy: 1, BlobDensity: 1, BlobEnergy: 1}); err == nil {
		t.Error("expected error for tiny N")
	}
	if _, err := NewSolver(Config{N: 8, CFL: 1.5, AmbientDensity: 1, AmbientEnergy: 1, BlobDensity: 1, BlobEnergy: 1}); err == nil {
		t.Error("expected error for CFL >= 1")
	}
	if _, err := NewSolver(Config{N: 8, CFL: 0.4, AmbientDensity: -1, AmbientEnergy: 1, BlobDensity: 1, BlobEnergy: 1}); err == nil {
		t.Error("expected error for negative density")
	}
	if _, err := NewSolver(Config{N: 8, CFL: 0.4, AmbientDensity: 1, AmbientEnergy: 0, BlobDensity: 1, BlobEnergy: 1}); err == nil {
		t.Error("expected error for zero energy")
	}
}

func TestInitialState(t *testing.T) {
	s, err := NewSolver(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	e := s.Energy()
	// Blob corner has high energy, far corner ambient.
	if got := e.At(0, 0, 0); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("blob energy = %g, want 2.5", got)
	}
	if got := e.At(15, 15, 15); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("ambient energy = %g, want 1.0", got)
	}
	rho := s.Density()
	if got := rho.At(0, 0, 0); got != 1.0 {
		t.Errorf("blob density = %g, want 1.0", got)
	}
	if got := rho.At(15, 15, 15); got != 0.2 {
		t.Errorf("ambient density = %g, want 0.2", got)
	}
}

func TestMassAndEnergyConservation(t *testing.T) {
	s, err := NewSolver(DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	m0 := s.TotalMass()
	e0 := s.TotalEnergy()
	s.Run(50)
	m1 := s.TotalMass()
	e1 := s.TotalEnergy()
	if rel := math.Abs(m1-m0) / m0; rel > 1e-12 {
		t.Errorf("mass drifted by %.3g relative", rel)
	}
	if rel := math.Abs(e1-e0) / e0; rel > 1e-12 {
		t.Errorf("energy drifted by %.3g relative", rel)
	}
}

func TestDensityStaysPositive(t *testing.T) {
	s, err := NewSolver(DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	rho := s.Density()
	for i, v := range rho.Data {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("density[%d] = %g after 100 steps", i, v)
		}
	}
}

func TestShockPropagates(t *testing.T) {
	s, err := NewSolver(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	// Ambient far corner is initially quiescent; after enough steps the
	// expansion reaches it.
	probe := func() float64 {
		e := s.Energy()
		return e.At(15, 15, 15)
	}
	before := probe()
	for i := 0; i < 300 && math.Abs(probe()-before) < 1e-6; i++ {
		s.Step()
	}
	if math.Abs(probe()-before) < 1e-6 {
		t.Error("disturbance never reached the far corner")
	}
	if s.Time() <= 0 {
		t.Error("time did not advance")
	}
}

func TestVelocityDevelops(t *testing.T) {
	s, err := NewSolver(DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	u0 := s.VelocityX()
	for _, v := range u0.Data {
		if v != 0 {
			t.Fatal("initial velocity must be zero")
		}
	}
	s.Run(20)
	u := s.VelocityX()
	var maxU float64
	for _, v := range u.Data {
		if a := math.Abs(v); a > maxU {
			maxU = a
		}
	}
	if maxU == 0 {
		t.Error("no motion developed from the pressure imbalance")
	}
}

func TestStaggeredGridSizes(t *testing.T) {
	// The paper: energy is 96³ (cell-centered), X-velocity 97³ (nodes).
	s, err := NewSolver(DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	e := s.Energy()
	if e.Dims.Nx != 8 || e.Dims.Ny != 8 || e.Dims.Nz != 8 {
		t.Errorf("energy dims %v, want 8x8x8", e.Dims)
	}
	u := s.VelocityX()
	if u.Dims.Nx != 9 || u.Dims.Ny != 9 || u.Dims.Nz != 9 {
		t.Errorf("velocity dims %v, want 9x9x9", u.Dims)
	}
}

func TestUniformStateIsSteady(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.BlobDensity = cfg.AmbientDensity
	cfg.BlobEnergy = cfg.AmbientEnergy
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	e := s.Energy()
	for i, v := range e.Data {
		if math.Abs(v-cfg.AmbientEnergy) > 1e-12 {
			t.Fatalf("uniform state evolved: energy[%d] = %g", i, v)
		}
	}
	u := s.VelocityX()
	for i, v := range u.Data {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("uniform state developed velocity[%d] = %g", i, v)
		}
	}
}

func TestSymmetryAlongDiagonal(t *testing.T) {
	// The initial condition and scheme are symmetric under coordinate
	// permutation, so the solution must stay invariant when swapping axes.
	s, err := NewSolver(DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(30)
	e := s.Energy()
	n := 10
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				a := e.At(x, y, z)
				b := e.At(y, x, z) // swap x and y
				if math.Abs(a-b) > 1e-10 {
					t.Fatalf("asymmetry at (%d,%d,%d): %g vs %g", x, y, z, a, b)
				}
			}
		}
	}
}

func TestDtPositiveAndBounded(t *testing.T) {
	s, err := NewSolver(DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		dt := s.Step()
		if dt <= 0 || math.IsNaN(dt) || dt > 1 {
			t.Fatalf("step %d: dt = %g", i, dt)
		}
	}
	if s.steps != 20 {
		t.Errorf("Steps = %d", s.steps)
	}
}

func TestSecondOrderConservesMassAndEnergy(t *testing.T) {
	cfg := DefaultConfig(12)
	cfg.SecondOrder = true
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m0, e0 := s.TotalMass(), s.TotalEnergy()
	s.Run(50)
	if rel := math.Abs(s.TotalMass()-m0) / m0; rel > 1e-12 {
		t.Errorf("second-order mass drifted %.3g", rel)
	}
	if rel := math.Abs(s.TotalEnergy()-e0) / e0; rel > 1e-12 {
		t.Errorf("second-order energy drifted %.3g", rel)
	}
	for i, v := range s.Density().Data {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("density[%d] = %g", i, v)
		}
	}
}

func TestSecondOrderSharperThanFirst(t *testing.T) {
	// Advance both schemes to the same time and compare how much the
	// initial energy discontinuity has smeared: the limited second-order
	// scheme must retain at least as much energy variance (less numerical
	// diffusion flattens the field).
	run := func(second bool) *Solver {
		cfg := DefaultConfig(16)
		cfg.SecondOrder = second
		s, err := NewSolver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s.Time() < 0.05 {
			s.Step()
		}
		return s
	}
	variance := func(s *Solver) float64 {
		e := s.Energy()
		var sum, sumSq float64
		for _, v := range e.Data {
			sum += v
			sumSq += v * v
		}
		n := float64(len(e.Data))
		mean := sum / n
		return sumSq/n - mean*mean
	}
	v1 := variance(run(false))
	v2 := variance(run(true))
	if v2 < v1*0.98 {
		t.Errorf("second-order variance %.5g below first-order %.5g — more diffusive?", v2, v1)
	}
}

func TestSecondOrderSymmetry(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.SecondOrder = true
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20)
	e := s.Energy()
	for z := 0; z < 10; z++ {
		for y := 0; y < 10; y++ {
			for x := 0; x < 10; x++ {
				if d := math.Abs(e.At(x, y, z) - e.At(y, x, z)); d > 1e-10 {
					t.Fatalf("second-order asymmetry %g at (%d,%d,%d)", d, x, y, z)
				}
			}
		}
	}
}

func TestMinmod(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{1, 2, 1}, {2, 1, 1}, {-1, -3, -1}, {-3, -1, -1},
		{1, -1, 0}, {0, 5, 0}, {5, 0, 0},
	}
	for _, c := range cases {
		if got := minmod(c.a, c.b); got != c.want {
			t.Errorf("minmod(%g,%g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

// TotalMass integrates density over the domain — conserved exactly by the
// scheme with reflective walls.
func (s *Solver) TotalMass() float64 {
	var m float64
	for _, r := range s.rho {
		m += r
	}
	return m * s.dx * s.dx * s.dx
}

// TotalEnergy integrates total energy over the domain — also conserved.
func (s *Solver) TotalEnergy() float64 {
	var e float64
	for _, v := range s.e {
		e += v
	}
	return e * s.dx * s.dx * s.dx
}

// Density returns the cell-centered density field.
func (s *Solver) Density() *grid.Field3D {
	f := grid.NewField3D(s.n, s.n, s.n)
	DensityInto(s, f)
	return f
}
