package transform

import (
	"fmt"

	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/par"
	"stwave/internal/scratch"
	"stwave/internal/wavelet"
)

// spatialLanes is the tile width (in X samples) of the blocked Y and Z
// passes: each tile transposes spatialLanes neighbouring strided lines
// into a contiguous slab and transforms them together. 64 lanes keep a
// 64-sample × 512-line slab pair under 512 KiB while amortizing the
// lifting loops over a full cache line of lanes.
const spatialLanes = 64

// contigSlabBytes caps (in bytes) the slab size of the contiguous fast
// paths in passY and passZ: at level 0 the grid's own memory layout
// already matches the blocked-kernel lane layout, so the transform can
// lift straight out of f.Data with no gather copy — worthwhile only
// while the region still fits in cache (256 KiB, i.e. twice the float64
// element budget when lifting float32).
const contigSlabBytes = 1 << 18

// Levels3D returns the number of transform levels the paper's Equation 2
// permits for a 3D grid: the per-axis maximum evaluated at the shortest
// axis, so every axis can sustain all levels.
func Levels3D(k wavelet.Kernel, d grid.Dims) int {
	n := d.Nx
	if d.Ny < n {
		n = d.Ny
	}
	if d.Nz < n {
		n = d.Nz
	}
	return wavelet.MaxLevels(k, n)
}

// Forward3D applies `levels` passes of the non-standard decomposition to the
// field in place: each pass runs one single-level 1D transform along every X
// row, then every Y column, then every Z pencil of the current approximation
// cube, then halves the cube. workers < 1 uses GOMAXPROCS.
func Forward3D[F num.Float](f *grid.Field3DOf[F], k wavelet.Kernel, levels, workers int) error {
	if levels < 0 {
		return fmt.Errorf("transform: negative level count %d", levels)
	}
	if max := Levels3D(k, f.Dims); levels > max {
		return fmt.Errorf("transform: %d levels exceeds maximum %d for kernel %v on grid %v", levels, max, k, f.Dims)
	}
	for l := 0; l < levels; l++ {
		c := CoarseDims(f.Dims, l)
		passX(f, k, c.Nx, c.Ny, c.Nz, workers, false)
		passY(f, k, c.Nx, c.Ny, c.Nz, workers, false)
		passZ(f, k, c.Nx, c.Ny, c.Nz, workers, false)
	}
	return nil
}

// Inverse3D undoes Forward3D with the same kernel and level count.
func Inverse3D[F num.Float](f *grid.Field3DOf[F], k wavelet.Kernel, levels, workers int) error {
	if levels < 0 {
		return fmt.Errorf("transform: negative level count %d", levels)
	}
	if max := Levels3D(k, f.Dims); levels > max {
		return fmt.Errorf("transform: %d levels exceeds maximum %d for kernel %v on grid %v", levels, max, k, f.Dims)
	}
	// Invert from the coarsest level out, reversing the per-level axis
	// order: Z, Y, X.
	for l := levels - 1; l >= 0; l-- {
		c := CoarseDims(f.Dims, l)
		passZ(f, k, c.Nx, c.Ny, c.Nz, workers, true)
		passY(f, k, c.Nx, c.Ny, c.Nz, workers, true)
		passX(f, k, c.Nx, c.Ny, c.Nz, workers, true)
	}
	return nil
}

// passX transforms the first cnx samples of every X row inside the
// (cnx, cny, cnz) approximation cube. Rows are contiguous in memory, so
// the scalar kernel already streams; rows are batched into tasks of at
// least ~4096 samples so short rows never pay goroutine overhead.
func passX[F num.Float](f *grid.Field3DOf[F], k wavelet.Kernel, cnx, cny, cnz, workers int, inverse bool) {
	if cnx < 2 {
		return
	}
	lines := cny * cnz
	// The workers<=1 path calls the range worker directly: creating the
	// closure for par.For would heap-allocate it at every level of every
	// slice even though the sequential path never needs it.
	if workers <= 1 {
		passXRange(f, k, cnx, cny, 0, lines, inverse)
		return
	}
	// Constant byte grain: ~32 KiB of samples per task at either
	// precision, so float32 rows batch twice as many samples before
	// paying goroutine overhead.
	grain := 1 + (32768/num.SampleBytes[F]())/cnx
	par.For(lines, workers, grain, func(start, end int) {
		passXRange(f, k, cnx, cny, start, end, inverse)
	})
}

func passXRange[F num.Float](f *grid.Field3DOf[F], k wavelet.Kernel, cnx, cny, start, end int, inverse bool) {
	nx, ny := f.Dims.Nx, f.Dims.Ny
	scr := scratch.FloatsOf[F](cnx)
	for li := start; li < end; li++ {
		y := li % cny
		z := li / cny
		row := f.Data[(z*ny+y)*nx : (z*ny+y)*nx+cnx]
		if inverse {
			wavelet.InverseStep(k, row, scr)
		} else {
			wavelet.ForwardStep(k, row, scr)
		}
	}
	scratch.PutFloatsOf(scr)
}

// passY transforms strided Y lines (stride Nx) inside the approximation
// cube: tiles of spatialLanes neighbouring X positions at each z.
func passY[F num.Float](f *grid.Field3DOf[F], k wavelet.Kernel, cnx, cny, cnz, workers int, inverse bool) {
	if cny < 2 {
		return
	}
	nx, ny := f.Dims.Nx, f.Dims.Ny
	ts := tiles[F]{data: f.Data, width: cnx, lanes: spatialLanes, sweeps: cnz, sweep: ny * nx, stride: nx}
	if cnx == nx && cny*nx*num.SampleBytes[F]() <= contigSlabBytes {
		// Level 0: each z plane's first cny rows are already a slab of
		// nx lanes, lifted where they lie.
		ts.lanes = nx
	}
	ts.run(k, cny, 1, workers, inverse)
}

// passZ transforms strided Z pencils (stride Nx*Ny) inside the
// approximation cube: tiles of spatialLanes neighbouring X positions at
// each y.
func passZ[F num.Float](f *grid.Field3DOf[F], k wavelet.Kernel, cnx, cny, cnz, workers int, inverse bool) {
	if cnz < 2 {
		return
	}
	nx, ny := f.Dims.Nx, f.Dims.Ny
	ts := tiles[F]{data: f.Data, width: cnx, lanes: spatialLanes, sweeps: cny, sweep: nx, stride: nx * ny}
	if workers <= 1 && cnx == nx && cny == ny && cnz*ny*nx*num.SampleBytes[F]() <= contigSlabBytes {
		// Level 0: the whole cnz-deep region is already one slab of
		// nx*ny lanes. Serial only: the tiles are what split the work
		// across goroutines.
		ts.width, ts.lanes, ts.sweeps = nx*ny, nx*ny, 1
	}
	ts.run(k, cnz, 1, workers, inverse)
}
