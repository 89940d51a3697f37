package grid

import "fmt"

// SubVolume copies the box [x0, x0+nx) x [y0, y0+ny) x [z0, z0+nz) into a
// new field. Region-of-interest extraction is how the paper's Tornado
// analysis works: "the tornado domain analyzed in this paper is
// significantly smaller than the full model domain" — scientists crop to
// the region of interest before (or after) compression.
func (f *Field3DOf[F]) SubVolume(x0, y0, z0, nx, ny, nz int) (*Field3DOf[F], error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("grid: subvolume extents must be positive, got %dx%dx%d", nx, ny, nz)
	}
	if x0 < 0 || y0 < 0 || z0 < 0 ||
		x0+nx > f.Dims.Nx || y0+ny > f.Dims.Ny || z0+nz > f.Dims.Nz {
		return nil, fmt.Errorf("grid: subvolume [%d:%d, %d:%d, %d:%d] outside %v",
			x0, x0+nx, y0, y0+ny, z0, z0+nz, f.Dims)
	}
	out := NewField3DOf[F](nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			srcBase := ((z0+z)*f.Dims.Ny+(y0+y))*f.Dims.Nx + x0
			dstBase := (z*ny + y) * nx
			copy(out.Data[dstBase:dstBase+nx], f.Data[srcBase:srcBase+nx])
		}
	}
	return out, nil
}

// SliceXY extracts the 2D plane z = k as a Ny x Nx row-major sample grid
// (for rendering and quick inspection).
func (f *Field3DOf[F]) SliceXY(k int) ([][]F, error) {
	if k < 0 || k >= f.Dims.Nz {
		return nil, fmt.Errorf("grid: z index %d outside [0,%d)", k, f.Dims.Nz)
	}
	out := make([][]F, f.Dims.Ny)
	for y := 0; y < f.Dims.Ny; y++ {
		row := make([]F, f.Dims.Nx)
		base := (k*f.Dims.Ny + y) * f.Dims.Nx
		copy(row, f.Data[base:base+f.Dims.Nx])
		out[y] = row
	}
	return out, nil
}
