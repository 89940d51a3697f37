package transform

// Golden equivalence tests for the cache-blocked, parallel transform
// paths: every test reimplements the original serial algorithm (the
// pre-blocking line-at-a-time code) and asserts the production path is
// bit-identical across kernels, odd/even dims, degenerate windows, and
// worker counts. Run under -race by `make check` to also prove the
// parallel tiling is data-race free.

import (
	"math"
	"math/rand"
	"testing"

	"stwave/internal/grid"
	"stwave/internal/wavelet"
)

// refForward3D is the original serial non-standard decomposition: one
// line at a time, gather/scatter per strided pencil.
func refForward3D(f *grid.Field3D, k wavelet.Kernel, levels int) {
	cnx, cny, cnz := f.Dims.Nx, f.Dims.Ny, f.Dims.Nz
	for l := 0; l < levels; l++ {
		refPassX(f, k, cnx, cny, cnz, false)
		refPassY(f, k, cnx, cny, cnz, false)
		refPassZ(f, k, cnx, cny, cnz, false)
		cnx, cny, cnz = half(cnx), half(cny), half(cnz)
	}
}

// half is the reference's own dyadic halving, kept independent of the
// wavelet package's band partition that the code under test uses.
func half(n int) int { return (n + 1) / 2 }

func refInverse3D(f *grid.Field3D, k wavelet.Kernel, levels int) {
	type cube struct{ x, y, z int }
	dims := make([]cube, levels)
	cnx, cny, cnz := f.Dims.Nx, f.Dims.Ny, f.Dims.Nz
	for l := 0; l < levels; l++ {
		dims[l] = cube{cnx, cny, cnz}
		cnx, cny, cnz = half(cnx), half(cny), half(cnz)
	}
	for l := levels - 1; l >= 0; l-- {
		c := dims[l]
		refPassZ(f, k, c.x, c.y, c.z, true)
		refPassY(f, k, c.x, c.y, c.z, true)
		refPassX(f, k, c.x, c.y, c.z, true)
	}
}

func refPassX(f *grid.Field3D, k wavelet.Kernel, cnx, cny, cnz int, inverse bool) {
	if cnx < 2 {
		return
	}
	nx, ny := f.Dims.Nx, f.Dims.Ny
	scr := make([]float64, cnx)
	for z := 0; z < cnz; z++ {
		for y := 0; y < cny; y++ {
			row := f.Data[(z*ny+y)*nx : (z*ny+y)*nx+cnx]
			if inverse {
				wavelet.InverseStep(k, row, scr)
			} else {
				wavelet.ForwardStep(k, row, scr)
			}
		}
	}
}

func refPassY(f *grid.Field3D, k wavelet.Kernel, cnx, cny, cnz int, inverse bool) {
	if cny < 2 {
		return
	}
	nx, ny := f.Dims.Nx, f.Dims.Ny
	line := make([]float64, cny)
	scr := make([]float64, cny)
	for z := 0; z < cnz; z++ {
		for x := 0; x < cnx; x++ {
			base := z*ny*nx + x
			for y := 0; y < cny; y++ {
				line[y] = f.Data[base+y*nx]
			}
			if inverse {
				wavelet.InverseStep(k, line, scr)
			} else {
				wavelet.ForwardStep(k, line, scr)
			}
			for y := 0; y < cny; y++ {
				f.Data[base+y*nx] = line[y]
			}
		}
	}
}

func refPassZ(f *grid.Field3D, k wavelet.Kernel, cnx, cny, cnz int, inverse bool) {
	if cnz < 2 {
		return
	}
	nx, ny := f.Dims.Nx, f.Dims.Ny
	stride := nx * ny
	line := make([]float64, cnz)
	scr := make([]float64, cnz)
	for y := 0; y < cny; y++ {
		for x := 0; x < cnx; x++ {
			base := y*nx + x
			for z := 0; z < cnz; z++ {
				line[z] = f.Data[base+z*stride]
			}
			if inverse {
				wavelet.InverseStep(k, line, scr)
			} else {
				wavelet.ForwardStep(k, line, scr)
			}
			for z := 0; z < cnz; z++ {
				f.Data[base+z*stride] = line[z]
			}
		}
	}
}

// refTemporalPass is the original one-point-at-a-time temporal transform.
func refTemporalPass(w *grid.Window, k wavelet.Kernel, levels int, inverse bool) {
	t := w.Len()
	if levels == 0 || t < 2 {
		return
	}
	lens := wavelet.BandLengths(t, levels)
	series := make([]float64, t)
	scr := make([]float64, t)
	for p := 0; p < w.Dims.Len(); p++ {
		w.GatherSeries(p, series)
		if inverse {
			for i := len(lens) - 1; i >= 0; i-- {
				wavelet.InverseStep(k, series[:lens[i]], scr)
			}
		} else {
			for _, ln := range lens {
				wavelet.ForwardStep(k, series[:ln], scr)
			}
		}
		w.ScatterSeries(p, series)
	}
}

func randomField(rng *rand.Rand, d grid.Dims) *grid.Field3D {
	f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func randomWindow(rng *rand.Rand, d grid.Dims, slices int) *grid.Window {
	w := grid.NewWindow(d)
	for t := 0; t < slices; t++ {
		if err := w.Append(randomField(rng, d), float64(t)); err != nil {
			panic(err)
		}
	}
	return w
}

func fieldsBitIdentical(t *testing.T, label string, got, want *grid.Field3D) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: sample %d: got %v, want %v (bit mismatch)", label, i, got.Data[i], want.Data[i])
		}
	}
}

func windowsBitIdentical(t *testing.T, label string, got, want *grid.Window) {
	t.Helper()
	for s := range want.Slices {
		for i := range want.Slices[s].Data {
			if math.Float64bits(got.Slices[s].Data[i]) != math.Float64bits(want.Slices[s].Data[i]) {
				t.Fatalf("%s: slice %d sample %d: got %v, want %v (bit mismatch)",
					label, s, i, got.Slices[s].Data[i], want.Slices[s].Data[i])
			}
		}
	}
}

var equivDims = []grid.Dims{
	{Nx: 1, Ny: 1, Nz: 1},
	{Nx: 2, Ny: 3, Nz: 4},
	{Nx: 9, Ny: 5, Nz: 7}, // odd everywhere
	{Nx: 8, Ny: 8, Nz: 8}, // even cube
	{Nx: 16, Ny: 12, Nz: 10},
	{Nx: 67, Ny: 4, Nz: 3},  // wider than one spatial tile
	{Nx: 130, Ny: 2, Nz: 2}, // three tiles with a short tail
}

// TestForward3DMatchesSerial pins the blocked, parallel 3D decomposition
// to the serial reference, forward and inverse, all kernels, odd/even
// dims, worker counts 1 and 4.
func TestForward3DMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []wavelet.Kernel{wavelet.CDF97, wavelet.CDF53, wavelet.Haar, wavelet.Daub4} {
		for _, d := range equivDims {
			levels := Levels3D(k, d)
			for _, workers := range []int{1, 4} {
				orig := randomField(rng, d)

				got := orig.Clone()
				if err := Forward3D(got, k, levels, workers); err != nil {
					t.Fatalf("Forward3D(%v, %v): %v", k, d, err)
				}
				want := orig.Clone()
				refForward3D(want, k, levels)
				fieldsBitIdentical(t, k.String()+" forward "+d.String(), got, want)

				if err := Inverse3D(got, k, levels, workers); err != nil {
					t.Fatalf("Inverse3D(%v, %v): %v", k, d, err)
				}
				refInverse3D(want, k, levels)
				fieldsBitIdentical(t, k.String()+" inverse "+d.String(), got, want)
			}
		}
	}
}

// TestTemporalMatchesSerial pins the cache-blocked temporal transform to
// the serial per-point reference across window sizes (including the
// paper's 10/20/40 and degenerate 1-slice windows) and kernels.
func TestTemporalMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := grid.Dims{Nx: 13, Ny: 5, Nz: 3} // 195 points: one full tile + a short tail
	for _, k := range []wavelet.Kernel{wavelet.CDF97, wavelet.CDF53, wavelet.Haar, wavelet.Daub4} {
		for _, slices := range []int{1, 2, 5, 10, 20, 40} {
			levels := LevelsTemporal(k, slices)
			for _, workers := range []int{1, 4} {
				orig := randomWindow(rng, d, slices)

				got := orig.Clone()
				if err := ForwardTemporal(got, k, levels, workers); err != nil {
					t.Fatalf("ForwardTemporal(%v, %d slices): %v", k, slices, err)
				}
				want := orig.Clone()
				refTemporalPass(want, k, levels, false)
				windowsBitIdentical(t, k.String()+" forward temporal", got, want)

				if err := InverseTemporal(got, k, levels, workers); err != nil {
					t.Fatalf("InverseTemporal(%v, %d slices): %v", k, slices, err)
				}
				refTemporalPass(want, k, levels, true)
				windowsBitIdentical(t, k.String()+" inverse temporal", got, want)
			}
		}
	}
}

// TestForward4DWorkerInvariance asserts the full 4D transform produces
// bit-identical output regardless of the worker budget — the property
// that makes the window-level parallel split safe to enable by default.
func TestForward4DWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := grid.Dims{Nx: 12, Ny: 9, Nz: 7}
	orig := randomWindow(rng, d, 10)
	spec := Spec{
		SpatialKernel: wavelet.CDF97, SpatialLevels: -1,
		TemporalKernel: wavelet.CDF53, TemporalLevels: -1,
		Workers: 1,
	}
	base := orig.Clone()
	if err := Forward4D(base, spec); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		spec.Workers = workers
		got := orig.Clone()
		if err := Forward4D(got, spec); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		windowsBitIdentical(t, "forward4d workers", got, base)

		if err := Inverse4D(got, spec); err != nil {
			t.Fatalf("inverse workers=%d: %v", workers, err)
		}
		specSerial := spec
		specSerial.Workers = 1
		back := base.Clone()
		if err := Inverse4D(back, specSerial); err != nil {
			t.Fatal(err)
		}
		windowsBitIdentical(t, "inverse4d workers", got, back)
	}
}

// TestTemporalDegenerateWindows checks 0- and 1-slice windows and level-0
// transforms are no-ops on both paths.
func TestTemporalDegenerateWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	w := randomWindow(rng, d, 1)
	orig := w.Clone()
	if err := ForwardTemporal(w, wavelet.CDF97, 0, 4); err != nil {
		t.Fatal(err)
	}
	windowsBitIdentical(t, "1-slice window", w, orig)

	empty := grid.NewWindow(d)
	if err := ForwardTemporal(empty, wavelet.CDF97, 0, 4); err != nil {
		t.Fatalf("empty window: %v", err)
	}
}
