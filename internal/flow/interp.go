// Package flow implements the particle-advection analysis of the paper's
// Section VI-A: Runge-Kutta 4 pathline integration through a time series of
// gridded velocity slices, with trilinear interpolation in space and linear
// interpolation between time slices, rake seeding, and the paper's
// first-deviation error metric.
package flow

import (
	"fmt"
	"math"

	"stwave/internal/grid"
)

// Vec3 is a position or velocity in physical coordinates (meters, m/s).
type Vec3 struct {
	X, Y, Z float64
}

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Scale returns a * s.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Dist returns the Euclidean distance between two points.
func (a Vec3) Dist(b Vec3) float64 {
	dx, dy, dz := a.X-b.X, a.Y-b.Y, a.Z-b.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Domain maps physical coordinates onto a rectilinear grid: point p sits at
// fractional grid index (p - Origin) / Spacing.
type Domain struct {
	Origin  Vec3
	Spacing Vec3
}

// VectorSlice is one time slice of a vector field.
type VectorSlice struct {
	U, V, W *grid.Field3D
	Time    float64
}

// VectorSeries is a time-ordered sequence of vector slices on a common grid
// and domain — the data a pathline integration consumes.
type VectorSeries struct {
	Domain Domain
	Slices []VectorSlice
}

// NewVectorSeries validates and wraps the slices (must be non-empty, share
// dims, and have strictly increasing times).
func NewVectorSeries(dom Domain, slices []VectorSlice) (*VectorSeries, error) {
	if len(slices) == 0 {
		return nil, fmt.Errorf("flow: empty vector series")
	}
	if dom.Spacing.X <= 0 || dom.Spacing.Y <= 0 || dom.Spacing.Z <= 0 {
		return nil, fmt.Errorf("flow: spacing must be positive, got %+v", dom.Spacing)
	}
	d := slices[0].U.Dims
	for i, s := range slices {
		if s.U.Dims != d || s.V.Dims != d || s.W.Dims != d {
			return nil, fmt.Errorf("flow: slice %d dims mismatch", i)
		}
		if i > 0 && s.Time <= slices[i-1].Time {
			return nil, fmt.Errorf("flow: non-increasing times at slice %d", i)
		}
	}
	return &VectorSeries{Domain: dom, Slices: slices}, nil
}

// Dims returns the grid extents.
func (vs *VectorSeries) Dims() grid.Dims { return vs.Slices[0].U.Dims }

// trilinear interpolates field f at fractional grid coordinates (gx, gy,
// gz), clamping to the grid boundary.
func trilinear(f *grid.Field3D, gx, gy, gz float64) float64 {
	d := f.Dims
	clampf := func(v float64, n int) (int, float64) {
		if v < 0 {
			v = 0
		}
		if v > float64(n-1) {
			v = float64(n - 1)
		}
		i := int(v)
		if i > n-2 {
			i = n - 2
		}
		if i < 0 {
			i = 0
		}
		return i, v - float64(i)
	}
	if d.Nx == 1 || d.Ny == 1 || d.Nz == 1 {
		// Degenerate axes: nearest sample.
		xi := int(math.Round(math.Max(0, math.Min(gx, float64(d.Nx-1)))))
		yi := int(math.Round(math.Max(0, math.Min(gy, float64(d.Ny-1)))))
		zi := int(math.Round(math.Max(0, math.Min(gz, float64(d.Nz-1)))))
		return f.At(xi, yi, zi)
	}
	x0, fx := clampf(gx, d.Nx)
	y0, fy := clampf(gy, d.Ny)
	z0, fz := clampf(gz, d.Nz)
	c000 := f.At(x0, y0, z0)
	c100 := f.At(x0+1, y0, z0)
	c010 := f.At(x0, y0+1, z0)
	c110 := f.At(x0+1, y0+1, z0)
	c001 := f.At(x0, y0, z0+1)
	c101 := f.At(x0+1, y0, z0+1)
	c011 := f.At(x0, y0+1, z0+1)
	c111 := f.At(x0+1, y0+1, z0+1)
	c00 := c000 + fx*(c100-c000)
	c10 := c010 + fx*(c110-c010)
	c01 := c001 + fx*(c101-c001)
	c11 := c011 + fx*(c111-c011)
	c0 := c00 + fy*(c10-c00)
	c1 := c01 + fy*(c11-c01)
	return c0 + fz*(c1-c0)
}

// VelocityAt evaluates the velocity at physical point p and time t:
// trilinear in space, linear between the two bracketing time slices
// ("velocity values between time slices were calculated using linear
// interpolation", Section VI-A). Outside the time range the nearest slice
// is used; outside the spatial domain values clamp to the boundary.
func (vs *VectorSeries) VelocityAt(p Vec3, t float64) Vec3 {
	gx := (p.X - vs.Domain.Origin.X) / vs.Domain.Spacing.X
	gy := (p.Y - vs.Domain.Origin.Y) / vs.Domain.Spacing.Y
	gz := (p.Z - vs.Domain.Origin.Z) / vs.Domain.Spacing.Z

	// Locate bracketing slices by binary search.
	n := len(vs.Slices)
	lo, hi := 0, n-1
	if t <= vs.Slices[0].Time {
		return vs.sampleSlice(0, gx, gy, gz)
	}
	if t >= vs.Slices[n-1].Time {
		return vs.sampleSlice(n-1, gx, gy, gz)
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if vs.Slices[mid].Time <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	a := vs.sampleSlice(lo, gx, gy, gz)
	b := vs.sampleSlice(hi, gx, gy, gz)
	frac := (t - vs.Slices[lo].Time) / (vs.Slices[hi].Time - vs.Slices[lo].Time)
	return a.Add(b.Sub(a).Scale(frac))
}

func (vs *VectorSeries) sampleSlice(i int, gx, gy, gz float64) Vec3 {
	s := vs.Slices[i]
	return Vec3{
		X: trilinear(s.U, gx, gy, gz),
		Y: trilinear(s.V, gx, gy, gz),
		Z: trilinear(s.W, gx, gy, gz),
	}
}

// InDomain reports whether p lies within the physical extent of the grid.
func (vs *VectorSeries) InDomain(p Vec3) bool {
	d := vs.Dims()
	o := vs.Domain.Origin
	sp := vs.Domain.Spacing
	return p.X >= o.X && p.X <= o.X+sp.X*float64(d.Nx-1) &&
		p.Y >= o.Y && p.Y <= o.Y+sp.Y*float64(d.Ny-1) &&
		p.Z >= o.Z && p.Z <= o.Z+sp.Z*float64(d.Nz-1)
}
