// Package grid provides the data containers used throughout stwave: scalar
// fields on 3D rectilinear grids, temporal windows of such fields, and
// helpers for temporal subsampling and raw-file (de)serialization.
//
// All fields store samples in X-fastest (C-contiguous with X innermost)
// order: index = (z*Ny + y)*Nx + x. This matches the raw-volume conventions
// of VAPOR and most simulation dumps.
//
// The containers are generic over the sample precision (num.Float):
// Field3D and Window are aliases for the float64 instantiation — the
// reference-oracle precision every pre-existing call site uses — while
// Field3D32 / Window32 name the single-precision fast path that halves
// memory traffic end-to-end.
package grid

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"stwave/internal/num"
)

// Dims describes the extent of a 3D grid.
type Dims struct {
	Nx, Ny, Nz int
}

// Len returns the number of grid points.
func (d Dims) Len() int { return d.Nx * d.Ny * d.Nz }

// Valid reports whether all extents are positive.
func (d Dims) Valid() bool { return d.Nx > 0 && d.Ny > 0 && d.Nz > 0 }

// String renders the dims as "NxXNyXNz".
func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.Nx, d.Ny, d.Nz) }

// MaxAxis is the largest per-axis extent a container header stores (far
// beyond any real grid). The cap keeps Dims.Len from overflowing.
const MaxAxis = 1 << 20

// ParseDims parses an operator's NXxNYxNZ extent, such as 64x64x32 (the
// separator may be upper case). Each axis must lie in [1, MaxAxis].
func ParseDims(s string) (Dims, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return Dims{}, fmt.Errorf("dims must be NXxNYxNZ, got %q", s)
	}
	var v [3]int
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 || n > MaxAxis {
			return Dims{}, fmt.Errorf("bad dimension %q in %q: each axis must be an integer in [1, %d]", p, s, MaxAxis)
		}
		v[i] = n
	}
	return Dims{Nx: v[0], Ny: v[1], Nz: v[2]}, nil
}

// Field3DOf is a scalar field sampled on a 3D rectilinear grid, with
// samples stored at precision F.
type Field3DOf[F num.Float] struct {
	Dims Dims
	// Data holds Dims.Len() samples in X-fastest order.
	Data []F
}

// Field3D is the double-precision field every reference path operates on.
type Field3D = Field3DOf[float64]

// Field3D32 is the single-precision field of the float32 fast path.
type Field3D32 = Field3DOf[float32]

// NewField3DOf allocates a zeroed field with the given extents at
// precision F.
func NewField3DOf[F num.Float](nx, ny, nz int) *Field3DOf[F] {
	d := Dims{nx, ny, nz}
	if !d.Valid() {
		panic(fmt.Sprintf("grid: invalid dims %v", d))
	}
	return &Field3DOf[F]{Dims: d, Data: make([]F, d.Len())}
}

// NewField3D allocates a zeroed float64 field with the given extents.
func NewField3D(nx, ny, nz int) *Field3D {
	return NewField3DOf[float64](nx, ny, nz)
}

// NewField3D32 allocates a zeroed float32 field with the given extents.
func NewField3D32(nx, ny, nz int) *Field3D32 {
	return NewField3DOf[float32](nx, ny, nz)
}

// FromDataOf wraps an existing sample slice as a field. The slice is not
// copied; len(data) must equal nx*ny*nz.
func FromDataOf[F num.Float](nx, ny, nz int, data []F) (*Field3DOf[F], error) {
	d := Dims{nx, ny, nz}
	if !d.Valid() {
		return nil, fmt.Errorf("grid: invalid dims %v", d)
	}
	if len(data) != d.Len() {
		return nil, fmt.Errorf("grid: data length %d does not match dims %v (%d)", len(data), d, d.Len())
	}
	return &Field3DOf[F]{Dims: d, Data: data}, nil
}

// Widen returns a float64 copy of the field (the identity copy when F is
// already float64).
func (f *Field3DOf[F]) Widen() *Field3D {
	out := &Field3D{Dims: f.Dims, Data: make([]float64, len(f.Data))}
	num.Convert(out.Data, f.Data)
	return out
}

// Narrow returns a float32 copy of the field, rounding each sample.
func (f *Field3DOf[F]) Narrow() *Field3D32 {
	out := &Field3D32{Dims: f.Dims, Data: make([]float32, len(f.Data))}
	num.Convert(out.Data, f.Data)
	return out
}

// Index returns the linear index of point (x, y, z).
func (f *Field3DOf[F]) Index(x, y, z int) int {
	return (z*f.Dims.Ny+y)*f.Dims.Nx + x
}

// At returns the sample at (x, y, z).
func (f *Field3DOf[F]) At(x, y, z int) F { return f.Data[f.Index(x, y, z)] }

// Set stores v at (x, y, z).
func (f *Field3DOf[F]) Set(x, y, z int, v F) { f.Data[f.Index(x, y, z)] = v }

// Clone returns a deep copy of the field.
func (f *Field3DOf[F]) Clone() *Field3DOf[F] {
	c := &Field3DOf[F]{Dims: f.Dims, Data: make([]F, len(f.Data))}
	copy(c.Data, f.Data)
	return c
}

// MinMax returns the smallest and largest sample values. NaNs are ignored;
// an all-NaN or empty field returns (+Inf, -Inf).
func (f *Field3DOf[F]) MinMax() (min, max F) {
	min, max = F(math.Inf(1)), F(math.Inf(-1))
	for _, v := range f.Data {
		if math.IsNaN(float64(v)) {
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Fill sets every sample to v.
func (f *Field3DOf[F]) Fill(v F) {
	for i := range f.Data {
		f.Data[i] = v
	}
}
