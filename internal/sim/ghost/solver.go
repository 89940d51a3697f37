// Package ghost implements a 3D pseudo-spectral incompressible
// Navier-Stokes solver, standing in for the GHOST (Geophysical
// High-Order Suite for Turbulence) simulation the paper draws its primary
// data set from. It solves
//
//	∂u/∂t + (u·∇)u = -∇p + ν∇²u + f,   ∇·u = 0
//
// on a 2π-periodic cube with Fourier collocation, 2/3-rule dealiasing,
// Leray projection onto divergence-free modes, second-order Runge-Kutta
// (Heun) time stepping, and steady ABC (Arnold-Beltrami-Childress) forcing
// at the largest scales — the classic recipe for forced homogeneous
// turbulence. Velocity components and the enstrophy density field match the
// variables the paper evaluates (X-velocity and enstrophy, Section V-A3).
package ghost

import (
	"fmt"
	"math"

	"stwave/internal/fbits"
	"stwave/internal/fft"
)

// Config parametrizes the solver.
type Config struct {
	// N is the grid resolution per axis; must be a power of two >= 8.
	N int
	// Nu is the kinematic viscosity.
	Nu float64
	// Dt is the time step.
	Dt float64
	// ForcingAmplitude scales the ABC forcing; 0 disables forcing
	// (decaying turbulence).
	ForcingAmplitude float64
	// ForcingWavenumber is the |k| of the ABC forcing (typically 1 or 2).
	ForcingWavenumber int
	// Seed randomizes the initial condition phase; same seed, same run.
	Seed int64
	// Workers bounds FFT parallelism; <= 0 uses GOMAXPROCS.
	Workers int
}

// DefaultConfig returns a stable forced-turbulence configuration at the
// given resolution.
func DefaultConfig(n int) Config {
	return Config{
		N:                 n,
		Nu:                0.08,
		Dt:                0.01,
		ForcingAmplitude:  0.25,
		ForcingWavenumber: 1,
		Seed:              1,
	}
}

// Solver holds the spectral state of the simulation.
type Solver struct {
	cfg   Config
	n     int
	plan  *fft.Plan3
	k     []float64 // wavenumber per index (0..n-1 mapped to signed)
	mask  []bool    // dealias mask per 3D index
	uh    [3][]complex128
	fh    [3][]complex128
	time  float64
	steps int

	// optional passive scalar (see scalar.go)
	scalar *scalarState

	// scratch
	phys [3][]complex128
	grad [3][3][]complex128
	nl   [3][]complex128
	rhs1 [3][]complex128
	rhs2 [3][]complex128
	save [3][]complex128
}

// NewSolver builds a solver with a Taylor-Green + perturbation initial
// condition.
func NewSolver(cfg Config) (*Solver, error) {
	if !fft.IsPow2(cfg.N) || cfg.N < 8 {
		return nil, fmt.Errorf("ghost: N must be a power of two >= 8, got %d", cfg.N)
	}
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("ghost: Dt must be positive, got %g", cfg.Dt)
	}
	if cfg.Nu < 0 {
		return nil, fmt.Errorf("ghost: Nu must be non-negative, got %g", cfg.Nu)
	}
	plan, err := fft.NewPlan3(cfg.N, cfg.Workers)
	if err != nil {
		return nil, err
	}
	n := cfg.N
	s := &Solver{cfg: cfg, n: n, plan: plan}
	s.k = make([]float64, n)
	for i := 0; i < n; i++ {
		if i <= n/2 {
			s.k[i] = float64(i)
		} else {
			s.k[i] = float64(i - n)
		}
	}
	total := n * n * n
	kmax := float64(n) / 3.0
	s.mask = make([]bool, total)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				idx := (z*n+y)*n + x
				s.mask[idx] = math.Abs(s.k[x]) <= kmax &&
					math.Abs(s.k[y]) <= kmax && math.Abs(s.k[z]) <= kmax
			}
		}
	}
	alloc := func() []complex128 { return make([]complex128, total) }
	for c := 0; c < 3; c++ {
		s.uh[c] = alloc()
		s.fh[c] = alloc()
		s.phys[c] = alloc()
		s.nl[c] = alloc()
		s.rhs1[c] = alloc()
		s.rhs2[c] = alloc()
		s.save[c] = alloc()
		for j := 0; j < 3; j++ {
			s.grad[c][j] = alloc()
		}
	}
	s.initCondition()
	s.initForcing()
	return s, nil
}

// initCondition seeds a Taylor-Green vortex plus a weak phase-shifted
// secondary mode so the flow transitions to 3D turbulence.
func (s *Solver) initCondition() {
	n := s.n
	h := 2 * math.Pi / float64(n)
	shift := 0.7 + 0.13*float64(s.cfg.Seed%17)
	for z := 0; z < n; z++ {
		Z := float64(z) * h
		for y := 0; y < n; y++ {
			Y := float64(y) * h
			for x := 0; x < n; x++ {
				X := float64(x) * h
				idx := (z*n+y)*n + x
				u := math.Sin(X)*math.Cos(Y)*math.Cos(Z) + 0.1*math.Sin(2*Y+shift)*math.Cos(Z)
				v := -math.Cos(X)*math.Sin(Y)*math.Cos(Z) + 0.1*math.Sin(2*Z+shift)*math.Cos(X)
				w := 0.1 * math.Sin(2*X+shift) * math.Cos(Y)
				s.uh[0][idx] = complex(u, 0)
				s.uh[1][idx] = complex(v, 0)
				s.uh[2][idx] = complex(w, 0)
			}
		}
	}
	for c := 0; c < 3; c++ {
		s.plan.Forward(s.uh[c])
	}
	s.project(&s.uh)
	s.dealias(&s.uh)
}

// initForcing precomputes the spectral ABC forcing.
func (s *Solver) initForcing() {
	if fbits.Zero(s.cfg.ForcingAmplitude) {
		return
	}
	n := s.n
	h := 2 * math.Pi / float64(n)
	k0 := float64(s.cfg.ForcingWavenumber)
	amp := s.cfg.ForcingAmplitude
	const A, B, C = 1.0, 1.0, 1.0
	for z := 0; z < n; z++ {
		Z := float64(z) * h
		for y := 0; y < n; y++ {
			Y := float64(y) * h
			for x := 0; x < n; x++ {
				X := float64(x) * h
				idx := (z*n+y)*n + x
				s.fh[0][idx] = complex(amp*(A*math.Sin(k0*Z)+C*math.Cos(k0*Y)), 0)
				s.fh[1][idx] = complex(amp*(B*math.Sin(k0*X)+A*math.Cos(k0*Z)), 0)
				s.fh[2][idx] = complex(amp*(C*math.Sin(k0*Y)+B*math.Cos(k0*X)), 0)
			}
		}
	}
	for c := 0; c < 3; c++ {
		s.plan.Forward(s.fh[c])
	}
}

// project applies the Leray projection P(v) = v - k (k·v)/|k|^2 in place,
// removing the compressive part of the spectral field.
func (s *Solver) project(v *[3][]complex128) {
	n := s.n
	for z := 0; z < n; z++ {
		kz := s.k[z]
		for y := 0; y < n; y++ {
			ky := s.k[y]
			base := (z*n + y) * n
			for x := 0; x < n; x++ {
				kx := s.k[x]
				k2 := kx*kx + ky*ky + kz*kz
				if fbits.Zero(k2) {
					continue
				}
				idx := base + x
				kdot := (complex(kx, 0)*v[0][idx] + complex(ky, 0)*v[1][idx] + complex(kz, 0)*v[2][idx]) * complex(1/k2, 0)
				v[0][idx] -= complex(kx, 0) * kdot
				v[1][idx] -= complex(ky, 0) * kdot
				v[2][idx] -= complex(kz, 0) * kdot
			}
		}
	}
}

// dealias zeroes modes outside the 2/3 sphere.
func (s *Solver) dealias(v *[3][]complex128) {
	for c := 0; c < 3; c++ {
		field := v[c]
		for i, keep := range s.mask {
			if !keep {
				field[i] = 0
			}
		}
	}
}

// rhs evaluates dû/dt into out: -P(FFT((u·∇)u)) - ν k² û + f̂.
func (s *Solver) rhs(uh *[3][]complex128, out *[3][]complex128) {
	n := s.n
	total := n * n * n
	// Physical velocity.
	for c := 0; c < 3; c++ {
		copy(s.phys[c], uh[c])
		s.plan.Inverse(s.phys[c])
	}
	// Spectral gradients: grad[c][j] = IFFT(i k_j û_c).
	for c := 0; c < 3; c++ {
		for j := 0; j < 3; j++ {
			g := s.grad[c][j]
			src := uh[c]
			for z := 0; z < n; z++ {
				for y := 0; y < n; y++ {
					base := (z*n + y) * n
					var kj float64
					switch j {
					case 1:
						kj = s.k[y]
					case 2:
						kj = s.k[z]
					}
					for x := 0; x < n; x++ {
						idx := base + x
						if j == 0 {
							kj = s.k[x]
						}
						v := src[idx]
						g[idx] = complex(-imag(v)*kj, real(v)*kj) // i*kj*v
					}
				}
			}
			s.plan.Inverse(g)
		}
	}
	// Nonlinear term N_c = sum_j u_j ∂u_c/∂x_j in physical space.
	for c := 0; c < 3; c++ {
		nl := s.nl[c]
		for i := 0; i < total; i++ {
			nl[i] = complex(
				real(s.phys[0][i])*real(s.grad[c][0][i])+
					real(s.phys[1][i])*real(s.grad[c][1][i])+
					real(s.phys[2][i])*real(s.grad[c][2][i]), 0)
		}
		s.plan.Forward(nl)
	}
	// Assemble: out = -N̂ - ν k² û + f̂, then project and dealias.
	for z := 0; z < n; z++ {
		kz := s.k[z]
		for y := 0; y < n; y++ {
			ky := s.k[y]
			base := (z*n + y) * n
			for x := 0; x < n; x++ {
				kx := s.k[x]
				idx := base + x
				visc := complex(s.cfg.Nu*(kx*kx+ky*ky+kz*kz), 0)
				for c := 0; c < 3; c++ {
					out[c][idx] = -s.nl[c][idx] - visc*uh[c][idx] + s.fh[c][idx]
				}
			}
		}
	}
	s.project(out)
	s.dealias(out)
}

// Step advances the solution by one time step (Heun / RK2).
func (s *Solver) Step() {
	dt := complex(s.cfg.Dt, 0)
	half := complex(s.cfg.Dt/2, 0)
	total := s.n * s.n * s.n
	s.rhs(&s.uh, &s.rhs1)
	for c := 0; c < 3; c++ {
		save := s.save[c]
		u := s.uh[c]
		r1 := s.rhs1[c]
		for i := 0; i < total; i++ {
			save[i] = u[i]
			u[i] += dt * r1[i]
		}
	}
	s.rhs(&s.uh, &s.rhs2)
	for c := 0; c < 3; c++ {
		save := s.save[c]
		u := s.uh[c]
		r1 := s.rhs1[c]
		r2 := s.rhs2[c]
		for i := 0; i < total; i++ {
			u[i] = save[i] + half*(r1[i]+r2[i])
		}
	}
	if s.scalar != nil {
		s.stepScalar(s.cfg.Dt)
	}
	s.time += s.cfg.Dt
	s.steps++
}

// Run advances the solver by steps time steps.
func (s *Solver) Run(steps int) {
	for i := 0; i < steps; i++ {
		s.Step()
	}
}

// Time returns the current simulation time.
func (s *Solver) Time() float64 { return s.time }

// Steps returns the number of completed time steps.
func (s *Solver) Steps() int { return s.steps }

// N returns the grid resolution.
func (s *Solver) N() int { return s.n }
