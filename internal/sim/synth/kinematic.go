// Package synth generates synthetic turbulence-like scalar and vector
// fields by superposing random Fourier modes with a Kolmogorov-like energy
// spectrum and eddy-turnover temporal decorrelation ("kinematic simulation"
// in the turbulence literature). It produces fields with controllable
// spatial and temporal coherence at any grid size. Grid fills go through
// one separable lattice kernel (SampleRows): modes × (nx+ny+nz) Sincos
// calls per slice, then two multiply-adds per mode per grid point, so the
// stand-in solver is not the bottleneck of an ingest measurement. ScalarAt
// and VelocityAt evaluate single points and are the kernel's oracle.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"stwave/internal/fbits"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/par"
)

// Config controls the generated ensemble.
type Config struct {
	// Modes is the number of random Fourier modes (more modes, smoother
	// statistics). Typical: 32-128.
	Modes int
	// MaxWavenumber bounds |k| of the modes; higher adds finer spatial
	// detail (less spatial coherence).
	MaxWavenumber float64
	// SpectrumSlope is the exponent p in amplitude ~ |k|^{-p}. Kolmogorov
	// velocity spectra correspond to p ≈ 11/6 for component amplitudes.
	SpectrumSlope float64
	// TimeScale sets temporal decorrelation: mode frequency
	// ω = |k|^{2/3} / TimeScale. Larger means more temporal coherence.
	TimeScale float64
	// Seed fixes the random ensemble.
	Seed int64
}

// DefaultConfig returns a Ghost-like, strongly coherent configuration.
func DefaultConfig() Config {
	return Config{
		Modes:         64,
		MaxWavenumber: 8,
		SpectrumSlope: 11.0 / 6.0,
		TimeScale:     10,
		Seed:          1,
	}
}

type mode struct {
	kx, ky, kz float64
	amp        float64
	phase      float64
	omega      float64
	// dir is the unit amplitude direction for vector fields, chosen
	// perpendicular to k so the synthesized velocity is divergence-free.
	dx, dy, dz float64
}

// Field synthesizes time-varying fields from a fixed mode ensemble. It is
// safe for concurrent sampling.
type Field struct {
	cfg   Config
	modes []mode
}

// NewField draws the random ensemble.
func NewField(cfg Config) (*Field, error) {
	if cfg.Modes < 1 {
		return nil, fmt.Errorf("synth: need at least 1 mode, got %d", cfg.Modes)
	}
	if cfg.MaxWavenumber <= 0 {
		return nil, fmt.Errorf("synth: MaxWavenumber must be positive, got %g", cfg.MaxWavenumber)
	}
	if cfg.TimeScale <= 0 {
		return nil, fmt.Errorf("synth: TimeScale must be positive, got %g", cfg.TimeScale)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Field{cfg: cfg, modes: make([]mode, cfg.Modes)}
	for i := range f.modes {
		// Wavenumber magnitude log-distributed in [1, MaxWavenumber].
		kmag := math.Exp(rng.Float64() * math.Log(cfg.MaxWavenumber))
		// Uniform random direction.
		theta := math.Acos(2*rng.Float64() - 1)
		phi := 2 * math.Pi * rng.Float64()
		kx := kmag * math.Sin(theta) * math.Cos(phi)
		ky := kmag * math.Sin(theta) * math.Sin(phi)
		kz := kmag * math.Cos(theta)
		// Amplitude direction: random vector projected perpendicular to k.
		ax, ay, az := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		dot := (ax*kx + ay*ky + az*kz) / (kmag * kmag)
		ax -= dot * kx
		ay -= dot * ky
		az -= dot * kz
		norm := math.Sqrt(ax*ax + ay*ay + az*az)
		if fbits.Zero(norm) {
			ax, ay, az, norm = 1, 0, 0, 1
		}
		f.modes[i] = mode{
			kx: kx, ky: ky, kz: kz,
			amp:   math.Pow(kmag, -cfg.SpectrumSlope),
			phase: 2 * math.Pi * rng.Float64(),
			omega: math.Pow(kmag, 2.0/3.0) / cfg.TimeScale,
			dx:    ax / norm, dy: ay / norm, dz: az / norm,
		}
	}
	return f, nil
}

// ScalarAt evaluates the scalar field at physical point (x, y, z) and time
// t. Coordinates live on the unit torus scale: one spatial unit spans the
// lowest wavenumber.
func (f *Field) ScalarAt(x, y, z, t float64) float64 {
	var v float64
	for i := range f.modes {
		m := &f.modes[i]
		v += m.amp * math.Sin(m.kx*x+m.ky*y+m.kz*z+m.omega*t+m.phase)
	}
	return v
}

// VelocityAt evaluates the divergence-free synthetic velocity at a point.
func (f *Field) VelocityAt(x, y, z, t float64) (u, v, w float64) {
	for i := range f.modes {
		m := &f.modes[i]
		s := m.amp * math.Sin(m.kx*x+m.ky*y+m.kz*z+m.omega*t+m.phase)
		u += m.dx * s
		v += m.dy * s
		w += m.dz * s
	}
	return u, v, w
}

// Lattice is a regular sampling lattice: point (i, j, k) sits at
// (X0 + i·Hx, Y0 + j·Hy, Z0 + k·Hz).
type Lattice struct {
	Dims       grid.Dims
	X0, Y0, Z0 float64
	Hx, Hy, Hz float64
}

// UnitLattice is the lattice the Sample* methods use: d points per axis
// spanning [0, 2π)³, origin included.
func UnitLattice(d grid.Dims) Lattice {
	return Lattice{
		Dims: d,
		Hx:   2 * math.Pi / float64(d.Nx),
		Hy:   2 * math.Pi / float64(d.Ny),
		Hz:   2 * math.Pi / float64(d.Nz),
	}
}

// check is the one place sampling dims are validated.
func (l Lattice) check() error {
	if !l.Dims.Valid() {
		return fmt.Errorf("synth: invalid lattice dims %v", l.Dims)
	}
	return nil
}

// Component selects the field SampleRows sums: the scalar, or one
// component of the velocity. They differ only in the per-mode weight.
type Component int

// The fields a mode ensemble synthesizes.
const (
	Scalar Component = iota
	VelocityX
	VelocityY
	VelocityZ
)

func (m *mode) weight(c Component) float64 {
	switch c {
	case VelocityX:
		return m.amp * m.dx
	case VelocityY:
		return m.amp * m.dy
	case VelocityZ:
		return m.amp * m.dz
	}
	return m.amp
}

// axisTable returns sin and cos of k(m)·(x0 + i·h) + phase(m) for every
// mode m and lattice index i < n, mode-major. Every entry is one direct
// Sincos call — no recurrence — so the error does not grow along the axis.
func (f *Field) axisTable(n int, x0, h float64, arg func(m *mode) (k, phase float64)) (sin, cos []float64) {
	sin = make([]float64, 2*len(f.modes)*n)
	sin, cos = sin[:len(sin)/2], sin[len(sin)/2:]
	for mi := range f.modes {
		k, phase := arg(&f.modes[mi])
		for i := 0; i < n; i++ {
			sin[mi*n+i], cos[mi*n+i] = math.Sincos(k*(x0+float64(i)*h) + phase)
		}
	}
	return sin, cos
}

// SampleRows is the lattice kernel every grid fill goes through. It
// evaluates the fields named by comps on lat at time t and hands them out
// one x-row at a time: emit(j, k, vals) receives vals[c][i], the float64
// value of comps[c] at lattice point (i, j, k). On a lattice
// sin(kx·x + ky·y + kz·z + ωt + φ) factors by angle addition, so a call
// costs modes × (nx+ny+nz) Sincos calls and each point two multiply-adds
// per mode per component.
//
// z-planes are split over par.Workers(0) goroutines, so emit runs
// concurrently for different k (never for the same row) and must only
// touch state that row owns; vals is reused once emit returns. Every row
// is computed by the same arithmetic wherever it runs, so the output does
// not depend on the worker count.
func (f *Field) SampleRows(lat Lattice, t float64, comps []Component, emit func(j, k int, vals [][]float64)) error {
	return f.sampleRows(lat, t, comps, par.Workers(0), emit)
}

// sampleRows is SampleRows with the worker count exposed, so tests can
// hold the output identical across counts.
func (f *Field) sampleRows(lat Lattice, t float64, comps []Component, workers int, emit func(j, k int, vals [][]float64)) error {
	if err := lat.check(); err != nil {
		return err
	}
	d, nm := lat.Dims, len(f.modes)
	xs, xc := f.axisTable(d.Nx, lat.X0, lat.Hx, func(m *mode) (float64, float64) { return m.kx, 0 })
	ys, yc := f.axisTable(d.Ny, lat.Y0, lat.Hy, func(m *mode) (float64, float64) { return m.ky, 0 })
	zs, zc := f.axisTable(d.Nz, lat.Z0, lat.Hz, func(m *mode) (float64, float64) { return m.kz, m.omega*t + m.phase })
	weights := make([]float64, len(comps)*nm)
	for ci, c := range comps {
		for mi := range f.modes {
			weights[ci*nm+mi] = f.modes[mi].weight(c)
		}
	}
	par.For(d.Nz, workers, 1, func(k0, k1 int) {
		buf := make([]float64, 2*nm+len(comps)*d.Nx)
		sinB, cosB, rows := buf[:nm], buf[nm:2*nm], buf[2*nm:]
		vals := make([][]float64, len(comps))
		for ci := range vals {
			vals[ci] = rows[ci*d.Nx:][:d.Nx]
		}
		for k := k0; k < k1; k++ {
			for j := 0; j < d.Ny; j++ {
				// b = ky·y + kz·z + ωt + φ is constant along the row.
				for mi := 0; mi < nm; mi++ {
					sy, cy := ys[mi*d.Ny+j], yc[mi*d.Ny+j]
					sz, cz := zs[mi*d.Nz+k], zc[mi*d.Nz+k]
					sinB[mi] = sy*cz + cy*sz
					cosB[mi] = cy*cz - sy*sz
				}
				for ci, row := range vals {
					clear(row)
					for mi := 0; mi < nm; mi++ {
						// w·sin(a+b) = (w cos b)·sin a + (w sin b)·cos a
						w := weights[ci*nm+mi]
						p, q := w*cosB[mi], w*sinB[mi]
						sa, ca := xs[mi*d.Nx:][:len(row)], xc[mi*d.Nx:][:len(row)]
						for i := range row {
							row[i] += p*sa[i] + q*ca[i]
						}
					}
				}
				emit(j, k, vals)
			}
		}
	})
	return nil
}

// sampleInto fills dst with component c on the unit lattice at time t,
// narrowing (or not) at the store.
func sampleInto[F num.Float](f *Field, dst *grid.Field3DOf[F], c Component, t float64) error {
	d := dst.Dims
	return f.SampleRows(UnitLattice(d), t, []Component{c}, func(j, k int, vals [][]float64) {
		row := dst.Data[dst.Index(0, j, k):][:d.Nx]
		for i, v := range vals[0] {
			row[i] = F(v)
		}
	})
}

// sample allocates an nx×ny×nz grid and fills it with component c.
func (f *Field) sample(nx, ny, nz int, c Component, t float64) (*grid.Field3D, error) {
	// Checked here as well because NewField3D panics on what check rejects.
	if err := UnitLattice(grid.Dims{Nx: nx, Ny: ny, Nz: nz}).check(); err != nil {
		return nil, err
	}
	out := grid.NewField3D(nx, ny, nz)
	return out, sampleInto(f, out, c, t)
}

// SampleScalar fills an nx×ny×nz grid spanning [0, 2π)³ with the scalar
// field at time t.
func (f *Field) SampleScalar(nx, ny, nz int, t float64) (*grid.Field3D, error) {
	return f.sample(nx, ny, nz, Scalar, t)
}

// SampleScalarInto fills dst with the scalar field at time t, leaving dst's
// buffer in place — the recycled-buffer variant the streaming ingest path
// uses. dst supplies the sampling resolution.
func (f *Field) SampleScalarInto(dst *grid.Field3D, t float64) error {
	return sampleInto(f, dst, Scalar, t)
}

// SampleScalarInto32 is SampleScalarInto storing at float32 — the
// single-precision ingest path. The mode sum stays float64; only the
// sampled field is 4 bytes per sample.
func (f *Field) SampleScalarInto32(dst *grid.Field3D32, t float64) error {
	return sampleInto(f, dst, Scalar, t)
}

// SampleVelocityX fills a grid with the X component of the synthetic
// velocity at time t.
func (f *Field) SampleVelocityX(nx, ny, nz int, t float64) (*grid.Field3D, error) {
	return f.sample(nx, ny, nz, VelocityX, t)
}

// ScalarWindow samples `count` scalar slices at interval dt starting at
// t0. It panics unless every extent is positive.
func (f *Field) ScalarWindow(nx, ny, nz, count int, t0, dt float64) *grid.Window {
	w := grid.NewWindow(grid.Dims{Nx: nx, Ny: ny, Nz: nz})
	for i := 0; i < count; i++ {
		t := t0 + float64(i)*dt
		s, err := f.SampleScalar(nx, ny, nz, t)
		if err == nil {
			err = w.Append(s, t)
		}
		if err != nil {
			panic(err)
		}
	}
	return w
}
