package ghost

import (
	"fmt"
	"math"

	"stwave/internal/grid"
	"stwave/internal/num"
)

// Passive scalar transport: GHOST (and most spectral turbulence codes) can
// co-evolve a passive scalar θ — temperature, dye, humidity — obeying
//
//	∂θ/∂t + u·∇θ = κ∇²θ + G u_z
//
// where the G u_z source models an imposed mean background gradient (the
// standard statistically-steady forcing for scalar turbulence). The scalar
// develops sharper fronts than the velocity (no pressure smoothing), which
// makes it a usefully *different* compression workload.
//
// The scalar advances with the same RK2 scheme, using the velocity frozen
// over the step (first-order operator coupling — standard practice for
// diagnostics-grade passive scalars).

// ScalarConfig parametrizes the passive scalar.
type ScalarConfig struct {
	// Kappa is the scalar diffusivity.
	Kappa float64
	// MeanGradient is G in the source term G*u_z; 0 gives pure decay.
	MeanGradient float64
}

// scalarState holds the spectral scalar and its scratch space.
type scalarState struct {
	cfg   ScalarConfig
	th    []complex128
	rhs1  []complex128
	rhs2  []complex128
	save  []complex128
	physT []complex128
	gradT [3][]complex128
}

// EnableScalar attaches a passive scalar with a large-scale sinusoidal
// initial condition. Must be called before stepping for meaningful output;
// calling it twice resets the scalar.
func (s *Solver) EnableScalar(cfg ScalarConfig) error {
	if cfg.Kappa < 0 {
		return fmt.Errorf("ghost: scalar diffusivity must be non-negative, got %g", cfg.Kappa)
	}
	n := s.n
	total := n * n * n
	st := &scalarState{cfg: cfg}
	alloc := func() []complex128 { return make([]complex128, total) }
	st.th = alloc()
	st.rhs1 = alloc()
	st.rhs2 = alloc()
	st.save = alloc()
	st.physT = alloc()
	for j := 0; j < 3; j++ {
		st.gradT[j] = alloc()
	}
	h := 2 * math.Pi / float64(n)
	for z := 0; z < n; z++ {
		Z := float64(z) * h
		for y := 0; y < n; y++ {
			Y := float64(y) * h
			for x := 0; x < n; x++ {
				X := float64(x) * h
				st.th[(z*n+y)*n+x] = complex(math.Sin(X)+0.5*math.Cos(Y+Z), 0)
			}
		}
	}
	s.plan.Forward(st.th)
	s.scalarDealias(st.th)
	s.scalar = st
	return nil
}

// HasScalar reports whether a passive scalar is attached.
func (s *Solver) HasScalar() bool { return s.scalar != nil }

// scalarDealias zeroes scalar modes outside the 2/3 sphere.
func (s *Solver) scalarDealias(th []complex128) {
	for i, keep := range s.mask {
		if !keep {
			th[i] = 0
		}
	}
}

// scalarRHS evaluates dθ̂/dt = -FFT(u·∇θ) - κk²θ̂ + G û_z into out, with the
// physical velocity already available in s.phys (filled by the caller).
func (s *Solver) scalarRHS(th []complex128, out []complex128) {
	st := s.scalar
	n := s.n
	total := n * n * n
	// Spectral gradient of θ.
	for j := 0; j < 3; j++ {
		g := st.gradT[j]
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
					v := th[idx]
					g[idx] = complex(-imag(v)*kj, real(v)*kj)
				}
			}
		}
		s.plan.Inverse(g)
	}
	// Advection u·∇θ in physical space.
	for i := 0; i < total; i++ {
		out[i] = complex(
			real(s.phys[0][i])*real(st.gradT[0][i])+
				real(s.phys[1][i])*real(st.gradT[1][i])+
				real(s.phys[2][i])*real(st.gradT[2][i]), 0)
	}
	s.plan.Forward(out)
	// Assemble.
	g := complex(st.cfg.MeanGradient, 0)
	for z := 0; z < n; z++ {
		kz := s.k[z]
		for y := 0; y < n; y++ {
			ky := s.k[y]
			base := (z*n + y) * n
			for x := 0; x < n; x++ {
				kx := s.k[x]
				idx := base + x
				diff := complex(st.cfg.Kappa*(kx*kx+ky*ky+kz*kz), 0)
				out[idx] = -out[idx] - diff*th[idx] + g*s.uh[2][idx]
			}
		}
	}
	s.scalarDealias(out)
}

// stepScalar advances θ by dt with RK2, using the current velocity.
func (s *Solver) stepScalar(dt float64) {
	st := s.scalar
	total := s.n * s.n * s.n
	// Physical velocity for advection (current state).
	for c := 0; c < 3; c++ {
		copy(s.phys[c], s.uh[c])
		s.plan.Inverse(s.phys[c])
	}
	s.scalarRHS(st.th, st.rhs1)
	cdt := complex(dt, 0)
	for i := 0; i < total; i++ {
		st.save[i] = st.th[i]
		st.th[i] += cdt * st.rhs1[i]
	}
	s.scalarRHS(st.th, st.rhs2)
	half := complex(dt/2, 0)
	for i := 0; i < total; i++ {
		st.th[i] = st.save[i] + half*(st.rhs1[i]+st.rhs2[i])
	}
}

// Scalar returns the physical passive-scalar field, or nil if no scalar is
// attached.
func (s *Solver) Scalar() *grid.Field3D {
	if s.scalar == nil {
		return nil
	}
	f := grid.NewField3D(s.n, s.n, s.n)
	if err := ScalarInto(s, f); err != nil {
		return nil
	}
	return f
}

// ScalarInto fills dst with the physical passive-scalar field without
// allocating — the streaming ingest path samples every solver step into a
// recycled window buffer, so the per-step allocation of Scalar would defeat
// its bounded-memory contract. The solver state stays float64 (the
// spectral step needs the headroom); the store narrows (or not) at the
// fill point. dst must be N³.
func ScalarInto[F num.Float](s *Solver, dst *grid.Field3DOf[F]) error {
	if s.scalar == nil {
		return fmt.Errorf("ghost: no scalar attached")
	}
	want := grid.Dims{Nx: s.n, Ny: s.n, Nz: s.n}
	if dst.Dims != want {
		return fmt.Errorf("ghost: dst dims %v != solver dims %v", dst.Dims, want)
	}
	copy(s.scalar.physT, s.scalar.th)
	s.plan.Inverse(s.scalar.physT)
	for i := range dst.Data {
		dst.Data[i] = F(real(s.scalar.physT[i]))
	}
	return nil
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
