package transform

import (
	"fmt"
	"math"

	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/wavelet"
)

// CoarseDims returns the grid extents of the approximation cube after
// `levels` levels of the non-standard decomposition.
func CoarseDims(d grid.Dims, levels int) grid.Dims {
	return grid.Dims{
		Nx: wavelet.ApproxLenAfter(d.Nx, levels),
		Ny: wavelet.ApproxLenAfter(d.Ny, levels),
		Nz: wavelet.ApproxLenAfter(d.Nz, levels),
	}
}

// CoarseApproximation computes a reduced-resolution version of the field by
// running `levels` levels of the forward 3D transform and extracting the
// approximation cube, rescaled back to physical sample values (each level
// multiplies the approximation band by sqrt(2) per axis). This is the
// multiresolution access mode wavelet-compressed visualization systems
// (VAPOR, and the multiresolution framework of Wang et al. the paper cites)
// expose for previews: a level-L preview has 1/8^L the samples.
//
// f is not modified.
func CoarseApproximation[F num.Float](f *grid.Field3DOf[F], k wavelet.Kernel, levels, workers int) (*grid.Field3DOf[F], error) {
	if levels < 0 {
		return nil, fmt.Errorf("transform: negative level count %d", levels)
	}
	if max := Levels3D(k, f.Dims); levels > max {
		return nil, fmt.Errorf("transform: %d levels exceeds maximum %d for %v on %v", levels, max, k, f.Dims)
	}
	work := f.Clone()
	if err := Forward3D(work, k, levels, workers); err != nil {
		return nil, err
	}
	cd := CoarseDims(f.Dims, levels)
	out := grid.NewField3DOf[F](cd.Nx, cd.Ny, cd.Nz)
	// Undo the per-level sqrt(2)^3 amplitude gain of the approximation band.
	scale := math.Pow(math.Sqrt2, -3*float64(levels))
	for z := 0; z < cd.Nz; z++ {
		for y := 0; y < cd.Ny; y++ {
			srcBase := (z*f.Dims.Ny + y) * f.Dims.Nx
			dstBase := (z*cd.Ny + y) * cd.Nx
			for x := 0; x < cd.Nx; x++ {
				out.Data[dstBase+x] = work.Data[srcBase+x] * F(scale)
			}
		}
	}
	return out, nil
}
