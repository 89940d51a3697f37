// Package cloverleaf implements a 3D compressible Euler solver in the style
// of the CloverLeaf3D mini-app the paper evaluates on: an ideal-gas finite
// volume scheme on a uniform staggered-output grid, initialized with a
// high-energy region expanding into a low-density ambient state.
//
// The scheme is first-order Godunov with Rusanov (local Lax-Friedrichs)
// fluxes and reflective walls — deliberately simple and extremely robust,
// which is what the compression study needs: smooth, physically plausible
// energy and velocity fields evolving coherently in time.
//
// Matching the paper's Section V-A3 grid-size detail, Energy() returns the
// cell-centered field (N³) while VelocityX() returns the node-sampled field
// ((N+1)³), reproducing the 96³-energy / 97³-velocity split.
package cloverleaf

import (
	"fmt"
	"math"

	"stwave/internal/grid"
	"stwave/internal/num"
)

// gamma is the ideal-gas adiabatic index.
const gamma = 1.4

// Config parametrizes the solver.
type Config struct {
	// N is the number of cells per axis.
	N int
	// CFL is the Courant number used to pick each time step (0 < CFL < 1).
	CFL float64
	// AmbientDensity and AmbientEnergy describe the background state
	// (CloverLeaf's canonical inputs use 0.2 / 1.0).
	AmbientDensity, AmbientEnergy float64
	// BlobDensity and BlobEnergy describe the energetic initial region
	// (canonically 1.0 / 2.5) filling the low corner octant.
	BlobDensity, BlobEnergy float64
	// BlobFraction is the fraction of the domain per axis covered by the
	// energetic region (canonically 0.5).
	BlobFraction float64
	// SecondOrder enables MUSCL minmod reconstruction (see muscl.go); off
	// gives the robust first-order scheme.
	SecondOrder bool
}

// DefaultConfig mirrors the standard CloverLeaf test problem.
func DefaultConfig(n int) Config {
	return Config{
		N:              n,
		CFL:            0.4,
		AmbientDensity: 0.2,
		AmbientEnergy:  1.0,
		BlobDensity:    1.0,
		BlobEnergy:     2.5,
		BlobFraction:   0.5,
	}
}

// Solver evolves conserved variables (density, momentum, total energy) on
// an N³ cell grid spanning the unit cube.
type Solver struct {
	cfg   Config
	n     int
	dx    float64
	time  float64
	steps int

	// Conserved state, one value per cell, X-fastest.
	rho, mx, my, mz, e []float64
	// Scratch for flux updates.
	nrho, nmx, nmy, nmz, ne []float64
}

// NewSolver builds and initializes the solver.
func NewSolver(cfg Config) (*Solver, error) {
	if cfg.N < 4 {
		return nil, fmt.Errorf("cloverleaf: N must be >= 4, got %d", cfg.N)
	}
	if cfg.CFL <= 0 || cfg.CFL >= 1 {
		return nil, fmt.Errorf("cloverleaf: CFL must be in (0,1), got %g", cfg.CFL)
	}
	if cfg.AmbientDensity <= 0 || cfg.BlobDensity <= 0 {
		return nil, fmt.Errorf("cloverleaf: densities must be positive")
	}
	if cfg.AmbientEnergy <= 0 || cfg.BlobEnergy <= 0 {
		return nil, fmt.Errorf("cloverleaf: energies must be positive")
	}
	n := cfg.N
	total := n * n * n
	s := &Solver{
		cfg: cfg, n: n, dx: 1.0 / float64(n),
		rho: make([]float64, total), mx: make([]float64, total),
		my: make([]float64, total), mz: make([]float64, total),
		e: make([]float64, total), nrho: make([]float64, total),
		nmx: make([]float64, total), nmy: make([]float64, total),
		nmz: make([]float64, total), ne: make([]float64, total),
	}
	blob := int(float64(n) * cfg.BlobFraction)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				idx := (z*n+y)*n + x
				rho, eint := cfg.AmbientDensity, cfg.AmbientEnergy
				if x < blob && y < blob && z < blob {
					rho, eint = cfg.BlobDensity, cfg.BlobEnergy
				}
				s.rho[idx] = rho
				s.e[idx] = rho * eint // total energy: no initial motion
			}
		}
	}
	return s, nil
}

// idx maps cell coordinates to the linear index with reflective clamping.
func (s *Solver) idx(x, y, z int) int {
	if x < 0 {
		x = -x - 1
	}
	if x >= s.n {
		x = 2*s.n - x - 1
	}
	if y < 0 {
		y = -y - 1
	}
	if y >= s.n {
		y = 2*s.n - y - 1
	}
	if z < 0 {
		z = -z - 1
	}
	if z >= s.n {
		z = 2*s.n - z - 1
	}
	return (z*s.n+y)*s.n + x
}

// cell holds the primitive reconstruction of one cell.
type cell struct {
	rho, u, v, w, p, E float64
}

func (s *Solver) primitive(i int) cell {
	rho := s.rho[i]
	u := s.mx[i] / rho
	v := s.my[i] / rho
	w := s.mz[i] / rho
	E := s.e[i]
	kin := 0.5 * rho * (u*u + v*v + w*w)
	eint := E - kin
	if eint < 1e-12*E {
		eint = 1e-12 * E // pressure floor
	}
	p := (gamma - 1) * eint
	return cell{rho, u, v, w, p, E}
}

// soundSpeed returns c = sqrt(gamma p / rho).
func (c cell) soundSpeed() float64 { return math.Sqrt(gamma * c.p / c.rho) }

// maxWaveSpeed scans the grid for the fastest signal speed.
func (s *Solver) maxWaveSpeed() float64 {
	var m float64
	for i := range s.rho {
		c := s.primitive(i)
		sp := math.Abs(c.u) + c.soundSpeed()
		if v := math.Abs(c.v) + c.soundSpeed(); v > sp {
			sp = v
		}
		if w := math.Abs(c.w) + c.soundSpeed(); w > sp {
			sp = w
		}
		if sp > m {
			m = sp
		}
	}
	return m
}

// flux5 is a 5-component conserved flux.
type flux5 [5]float64

// rusanov computes the Rusanov numerical flux across a face between left
// and right states, for the axis whose velocity component is selected by
// vel (0=x, 1=y, 2=z).
func rusanov(l, r cell, axis int) flux5 {
	velOf := func(c cell) float64 {
		switch axis {
		case 0:
			return c.u
		case 1:
			return c.v
		default:
			return c.w
		}
	}
	physFlux := func(c cell) flux5 {
		vn := velOf(c)
		f := flux5{
			c.rho * vn,
			c.rho * vn * c.u,
			c.rho * vn * c.v,
			c.rho * vn * c.w,
			(c.E + c.p) * vn,
		}
		// Pressure contributes to the normal momentum flux only.
		f[1+axis] += c.p
		return f
	}
	fl := physFlux(l)
	fr := physFlux(r)
	smax := math.Max(math.Abs(velOf(l))+l.soundSpeed(), math.Abs(velOf(r))+r.soundSpeed())
	ul := [5]float64{l.rho, l.rho * l.u, l.rho * l.v, l.rho * l.w, l.E}
	ur := [5]float64{r.rho, r.rho * r.u, r.rho * r.v, r.rho * r.w, r.E}
	var out flux5
	for c := 0; c < 5; c++ {
		out[c] = 0.5*(fl[c]+fr[c]) - 0.5*smax*(ur[c]-ul[c])
	}
	return out
}

// Step advances one CFL-limited time step and returns the dt used.
func (s *Solver) Step() float64 {
	smax := s.maxWaveSpeed()
	dt := s.cfg.CFL * s.dx / (smax + 1e-300)
	s.advance(dt)
	return dt
}

// advance applies one first-order finite-volume update with time step dt.
func (s *Solver) advance(dt float64) {
	n := s.n
	lambda := dt / s.dx
	copy(s.nrho, s.rho)
	copy(s.nmx, s.mx)
	copy(s.nmy, s.my)
	copy(s.nmz, s.mz)
	copy(s.ne, s.e)

	apply := func(i int, f flux5, sign float64) {
		s.nrho[i] += sign * lambda * f[0]
		s.nmx[i] += sign * lambda * f[1]
		s.nmy[i] += sign * lambda * f[2]
		s.nmz[i] += sign * lambda * f[3]
		s.ne[i] += sign * lambda * f[4]
	}

	// Sweep faces along each axis. Face between cell (x,y,z) and its +axis
	// neighbour; boundary faces use the reflected ghost state.
	for axis := 0; axis < 3; axis++ {
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					i := (z*n+y)*n + x
					// +face
					var xr, yr, zr = x, y, z
					switch axis {
					case 0:
						xr++
					case 1:
						yr++
					case 2:
						zr++
					}
					outside := xr >= n || yr >= n || zr >= n
					var l, r cell
					if outside {
						// Wall: reconstruct the interior state to the face
						// and mirror it, preserving exact flux cancellation.
						l, _ = s.faceStates(x, y, z, x, y, z, axis)
						r = mirror(l, axis)
					} else {
						l, r = s.faceStates(x, y, z, xr, yr, zr, axis)
					}
					f := rusanov(l, r, axis)
					apply(i, f, -1)
					if !outside {
						apply((zr*n+yr)*n+xr, f, +1)
					}
					// -face at the domain boundary (interior -faces are the
					// previous cell's +face).
					atLow := (axis == 0 && x == 0) || (axis == 1 && y == 0) || (axis == 2 && z == 0)
					if atLow {
						_, rlow := s.faceStates(x, y, z, x, y, z, axis)
						gl := mirror(rlow, axis)
						fb := rusanov(gl, rlow, axis)
						apply(i, fb, +1)
					}
				}
			}
		}
	}
	s.rho, s.nrho = s.nrho, s.rho
	s.mx, s.nmx = s.nmx, s.mx
	s.my, s.nmy = s.nmy, s.my
	s.mz, s.nmz = s.nmz, s.mz
	s.e, s.ne = s.ne, s.e
	s.time += dt
	s.steps++
}

// Run advances by `steps` CFL-limited steps.
func (s *Solver) Run(steps int) {
	for i := 0; i < steps; i++ {
		s.Step()
	}
}

// Time returns the simulation time.
func (s *Solver) Time() float64 { return s.time }

// Steps returns the number of completed steps.
func (s *Solver) Steps() int { return s.steps }

// N returns the cell count per axis.
func (s *Solver) N() int { return s.n }

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

// Energy returns the cell-centered specific internal energy field (N³) —
// the paper's CloverLeaf "energy" variable.
func (s *Solver) Energy() *grid.Field3D {
	f := grid.NewField3D(s.n, s.n, s.n)
	s.EnergyInto(f)
	return f
}

// EnergyInto fills dst with the specific internal energy field without
// allocating; dst must be N³. The allocation-free variant exists for the
// streaming ingest path, which samples every step into recycled buffers.
func (s *Solver) EnergyInto(dst *grid.Field3D) error {
	if want := (grid.Dims{Nx: s.n, Ny: s.n, Nz: s.n}); dst.Dims != want {
		return fmt.Errorf("cloverleaf: dst dims %v != solver dims %v", dst.Dims, want)
	}
	for i := range dst.Data {
		c := s.primitive(i)
		dst.Data[i] = c.p / ((gamma - 1) * c.rho)
	}
	return nil
}

// VelocityX returns the X velocity sampled at cell corners ((N+1)³) by
// averaging the eight adjacent cells — reproducing the paper's staggered
// 97³ velocity grid alongside the 96³ energy grid.
func (s *Solver) VelocityX() *grid.Field3D {
	n := s.n
	f := grid.NewField3D(n+1, n+1, n+1)
	for z := 0; z <= n; z++ {
		for y := 0; y <= n; y++ {
			for x := 0; x <= n; x++ {
				var sum float64
				for dz := -1; dz <= 0; dz++ {
					for dy := -1; dy <= 0; dy++ {
						for dx := -1; dx <= 0; dx++ {
							c := s.primitive(s.idx(x+dx, y+dy, z+dz))
							sum += c.u
						}
					}
				}
				f.Set(x, y, z, sum/8)
			}
		}
	}
	return f
}

// Density returns the cell-centered density field.
func (s *Solver) Density() *grid.Field3D {
	f := grid.NewField3D(s.n, s.n, s.n)
	DensityInto(s, f)
	return f
}

// DensityInto fills dst with the cell-centered density field without
// allocating. The solver marches in float64; the store narrows (or not)
// at the fill point. dst must be N³.
func DensityInto[F num.Float](s *Solver, dst *grid.Field3DOf[F]) error {
	if want := (grid.Dims{Nx: s.n, Ny: s.n, Nz: s.n}); dst.Dims != want {
		return fmt.Errorf("cloverleaf: dst dims %v != solver dims %v", dst.Dims, want)
	}
	num.Convert(dst.Data, s.rho)
	return nil
}
