package tornado

import (
	"fmt"
	"math"

	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/sim/synth"
)

// Cell spacing helpers: grid index i maps to physical coordinate
// (i + 0.5) * L / N (cell centers).

// CellX returns the physical X coordinate of cell index i.
func (m *Model) CellX(i int) float64 { return (float64(i) + 0.5) * m.cfg.Lx / float64(m.cfg.Nx) }

// CellY returns the physical Y coordinate of cell index j.
func (m *Model) CellY(j int) float64 { return (float64(j) + 0.5) * m.cfg.Ly / float64(m.cfg.Ny) }

// CellZ returns the physical Z coordinate of cell index k.
func (m *Model) CellZ(k int) float64 { return (float64(k) + 0.5) * m.cfg.Lz / float64(m.cfg.Nz) }

// Spacing returns the physical cell sizes (dx, dy, dz) in meters.
func (m *Model) Spacing() (dx, dy, dz float64) {
	return m.cfg.Lx / float64(m.cfg.Nx), m.cfg.Ly / float64(m.cfg.Ny), m.cfg.Lz / float64(m.cfg.Nz)
}

// lattice is the cell-centre grid in the turbulence field's coordinates
// (see velocityWaves): the lattice synth's kernel sums the modes on.
func (m *Model) lattice(waves float64) synth.Lattice {
	hx := waves * math.Pi / float64(m.cfg.Nx)
	hy := waves * math.Pi / float64(m.cfg.Ny)
	hz := waves * math.Pi / float64(m.cfg.Nz)
	return synth.Lattice{
		Dims: grid.Dims{Nx: m.cfg.Nx, Ny: m.cfg.Ny, Nz: m.cfg.Nz},
		X0:   hx / 2, Y0: hy / 2, Z0: hz / 2,
		Hx: hx, Hy: hy, Hz: hz,
	}
}

// fillOf is the fill loop behind every single-field sampler: dst gets
// point(x, y, z, turb) at every cell center, where turb is component c of
// the turbulence on lattice(waves). synth's lattice kernel sums the modes
// a row at a time and spreads z-planes over the CPUs, so point runs
// concurrently and adds only the analytic part. Evaluation stays float64,
// the store narrows (or not) at the fill point.
func fillOf[F num.Float](m *Model, dst *grid.Field3DOf[F], t, waves float64, c synth.Component, point func(x, y, z, turb float64) float64) error {
	lat := m.lattice(waves)
	if dst.Dims != lat.Dims {
		return fmt.Errorf("tornado: dst dims %v != model dims %v", dst.Dims, lat.Dims)
	}
	return m.turb.SampleRows(lat, t, []synth.Component{c}, func(j, k int, vals [][]float64) {
		Y, Z := m.CellY(j), m.CellZ(k)
		row := dst.Data[dst.Index(0, j, k):][:m.cfg.Nx]
		for i, turb := range vals[0] {
			row[i] = F(point(m.CellX(i), Y, Z, turb))
		}
	})
}

// sample allocates a model-sized grid and fills it through fillOf.
func (m *Model) sample(t, waves float64, c synth.Component, point func(x, y, z, turb float64) float64) *grid.Field3D {
	f := grid.NewField3D(m.cfg.Nx, m.cfg.Ny, m.cfg.Nz)
	if err := fillOf(m, f, t, waves, c, point); err != nil {
		panic(err) // unreachable: f has the model's dims, which NewModel validated
	}
	return f
}

// Velocity samples all three wind components at time t.
func (m *Model) Velocity(t float64) (u, v, w *grid.Field3D) {
	u = grid.NewField3D(m.cfg.Nx, m.cfg.Ny, m.cfg.Nz)
	v = grid.NewField3D(m.cfg.Nx, m.cfg.Ny, m.cfg.Nz)
	w = grid.NewField3D(m.cfg.Nx, m.cfg.Ny, m.cfg.Nz)
	comps := []synth.Component{synth.VelocityX, synth.VelocityY, synth.VelocityZ}
	err := m.turb.SampleRows(m.lattice(velocityWaves), t, comps, func(j, k int, vals [][]float64) {
		Y, Z := m.CellY(j), m.CellZ(k)
		for i := 0; i < m.cfg.Nx; i++ {
			uu, vv, ww := m.windAt(m.CellX(i), Y, Z, t)
			idx := u.Index(i, j, k)
			u.Data[idx] = uu + m.cfg.TurbulenceAmplitude*vals[0][i]
			v.Data[idx] = vv + m.cfg.TurbulenceAmplitude*vals[1][i]
			w.Data[idx] = ww + m.cfg.TurbulenceAmplitude*vals[2][i]
		}
	})
	if err != nil {
		panic(err) // unreachable: NewModel validated the dims
	}
	return u, v, w
}

// VelocityX samples the X wind component at time t.
func (m *Model) VelocityX(t float64) *grid.Field3D {
	return m.sample(t, velocityWaves, synth.VelocityX, func(x, y, z, turb float64) float64 {
		u, _, _ := m.windAt(x, y, z, t)
		return u + m.cfg.TurbulenceAmplitude*turb
	})
}

// VelocityZ samples the vertical wind component at time t (the paper's
// isosurface study uses Z-velocity).
func (m *Model) VelocityZ(t float64) *grid.Field3D {
	return m.sample(t, velocityWaves, synth.VelocityZ, m.updraft(t))
}

// updraft is fillOf's point function for the vertical wind at time t.
func (m *Model) updraft(t float64) func(x, y, z, turb float64) float64 {
	return func(x, y, z, turb float64) float64 {
		_, _, w := m.windAt(x, y, z, t)
		return w + m.cfg.TurbulenceAmplitude*turb
	}
}

// PressurePerturbation samples the pressure deficit field at time t.
func (m *Model) PressurePerturbation(t float64) *grid.Field3D {
	return m.sample(t, pressureWaves, synth.Scalar, func(x, y, z, turb float64) float64 {
		return m.pressureAt(x, y, z, t) + pressureTurbulence*turb
	})
}

// cloud is fillOf's point function for the cloud water field at time t.
func (m *Model) cloud(t float64) func(x, y, z, turb float64) float64 {
	w := m.updraft(t)
	return func(x, y, z, turb float64) float64 { return m.cloudOf(w(x, y, z, turb), z) }
}

// CloudMixingRatio samples the cloud water field at time t.
func (m *Model) CloudMixingRatio(t float64) *grid.Field3D {
	return m.sample(t, velocityWaves, synth.VelocityZ, m.cloud(t))
}

// CloudMixingRatioInto samples the cloud water field at time t into dst
// without replacing its buffer — the streaming ingest path's
// recycled-buffer fill. The analytic evaluation stays float64; the store
// narrows (or not) at the fill point. dst must match the model grid.
func CloudMixingRatioInto[F num.Float](m *Model, dst *grid.Field3DOf[F], t float64) error {
	return fillOf(m, dst, t, velocityWaves, synth.VelocityZ, m.cloud(t))
}

// Enstrophy samples |curl u|² at time t using centered finite differences
// of the gridded velocity (matching how a post-processing tool would derive
// it from stored slices).
func (m *Model) Enstrophy(t float64) *grid.Field3D {
	u, v, w := m.Velocity(t)
	dx, dy, dz := m.Spacing()
	return CurlMagnitudeSquared(u, v, w, dx, dy, dz)
}

// CurlMagnitudeSquared computes |∇×(u,v,w)|² by centered differences with
// one-sided stencils at the boundaries. The three fields must share dims.
func CurlMagnitudeSquared(u, v, w *grid.Field3D, spacing ...float64) *grid.Field3D {
	dx, dy, dz := 1.0, 1.0, 1.0
	if len(spacing) == 3 {
		dx, dy, dz = spacing[0], spacing[1], spacing[2]
	}
	d := u.Dims
	out := grid.NewField3D(d.Nx, d.Ny, d.Nz)
	deriv := func(f *grid.Field3D, x, y, z, axis int, h float64) float64 {
		get := func(dx2, dy2, dz2 int) float64 {
			xx, yy, zz := x+dx2, y+dy2, z+dz2
			if xx < 0 {
				xx = 0
			}
			if yy < 0 {
				yy = 0
			}
			if zz < 0 {
				zz = 0
			}
			if xx >= d.Nx {
				xx = d.Nx - 1
			}
			if yy >= d.Ny {
				yy = d.Ny - 1
			}
			if zz >= d.Nz {
				zz = d.Nz - 1
			}
			return f.At(xx, yy, zz)
		}
		var plus, minus float64
		span := 2.0
		switch axis {
		case 0:
			plus, minus = get(1, 0, 0), get(-1, 0, 0)
			if x == 0 || x == d.Nx-1 {
				span = 1
			}
		case 1:
			plus, minus = get(0, 1, 0), get(0, -1, 0)
			if y == 0 || y == d.Ny-1 {
				span = 1
			}
		default:
			plus, minus = get(0, 0, 1), get(0, 0, -1)
			if z == 0 || z == d.Nz-1 {
				span = 1
			}
		}
		return (plus - minus) / (span * h)
	}
	for z := 0; z < d.Nz; z++ {
		for y := 0; y < d.Ny; y++ {
			for x := 0; x < d.Nx; x++ {
				ox := deriv(w, x, y, z, 1, dy) - deriv(v, x, y, z, 2, dz)
				oy := deriv(u, x, y, z, 2, dz) - deriv(w, x, y, z, 0, dx)
				oz := deriv(v, x, y, z, 0, dx) - deriv(u, x, y, z, 1, dy)
				out.Set(x, y, z, ox*ox+oy*oy+oz*oz)
			}
		}
	}
	return out
}
