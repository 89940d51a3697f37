package transform

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"stwave/internal/grid"
	"stwave/internal/wavelet"
)

func randField(rng *rand.Rand, nx, ny, nz int) *grid.Field3D {
	f := grid.NewField3D(nx, ny, nz)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64() * 10
	}
	return f
}

func smoothField(nx, ny, nz int) *grid.Field3D {
	f := grid.NewField3D(nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				fx := float64(x) / float64(nx)
				fy := float64(y) / float64(ny)
				fz := float64(z) / float64(nz)
				f.Set(x, y, z, math.Sin(2*math.Pi*fx)*math.Cos(2*math.Pi*fy)+fz*fz)
			}
		}
	}
	return f
}

func maxDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestLevels3D(t *testing.T) {
	cases := []struct {
		k    wavelet.Kernel
		d    grid.Dims
		want int
	}{
		{wavelet.CDF97, grid.Dims{Nx: 512, Ny: 512, Nz: 512}, 6},
		{wavelet.CDF97, grid.Dims{Nx: 512, Ny: 512, Nz: 10}, 1},
		{wavelet.CDF97, grid.Dims{Nx: 97, Ny: 97, Nz: 97}, 4},
		{wavelet.CDF53, grid.Dims{Nx: 96, Ny: 96, Nz: 96}, 5},
		{wavelet.CDF97, grid.Dims{Nx: 8, Ny: 512, Nz: 512}, 0},
	}
	for _, c := range cases {
		if got := Levels3D(c.k, c.d); got != c.want {
			t.Errorf("Levels3D(%v, %v) = %d, want %d", c.k, c.d, got, c.want)
		}
	}
}

func TestForward3DPerfectReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []wavelet.Kernel{wavelet.CDF97, wavelet.CDF53, wavelet.Haar} {
		for _, d := range []grid.Dims{{Nx: 16, Ny: 16, Nz: 16}, {Nx: 17, Ny: 13, Nz: 9}, {Nx: 32, Ny: 8, Nz: 24}, {Nx: 33, Ny: 1, Nz: 7}} {
			f := randField(rng, d.Nx, d.Ny, d.Nz)
			orig := f.Clone()
			levels := Levels3D(k, d)
			if err := Forward3D(f, k, levels, 1); err != nil {
				t.Fatalf("%v %v: %v", k, d, err)
			}
			if err := Inverse3D(f, k, levels, 1); err != nil {
				t.Fatalf("%v %v inverse: %v", k, d, err)
			}
			if diff := maxDiff(orig.Data, f.Data); diff > 1e-8 {
				t.Errorf("%v %v levels=%d: reconstruction error %.3g", k, d, levels, diff)
			}
		}
	}
}

func TestForward3DParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := randField(rng, 24, 20, 16)
	serial := f.Clone()
	parallel := f.Clone()
	levels := Levels3D(wavelet.CDF97, f.Dims)
	if err := Forward3D(serial, wavelet.CDF97, levels, 1); err != nil {
		t.Fatal(err)
	}
	if err := Forward3D(parallel, wavelet.CDF97, levels, 8); err != nil {
		t.Fatal(err)
	}
	if diff := maxDiff(serial.Data, parallel.Data); diff != 0 {
		t.Errorf("parallel result differs from serial by %g (must be bit-identical)", diff)
	}
}

func TestForward3DRejectsBadLevels(t *testing.T) {
	f := grid.NewField3D(16, 16, 16)
	if err := Forward3D(f, wavelet.CDF97, 5, 1); err == nil {
		t.Error("expected error: 5 levels on 16^3 with CDF 9/7")
	}
	if err := Forward3D(f, wavelet.CDF97, -1, 1); err == nil {
		t.Error("expected error for negative levels")
	}
	if err := Inverse3D(f, wavelet.CDF97, 5, 1); err == nil {
		t.Error("expected inverse error: too many levels")
	}
}

func TestForward3DCompactsSmoothField(t *testing.T) {
	f := smoothField(32, 32, 32)
	orig := f.Clone()
	levels := Levels3D(wavelet.CDF97, f.Dims)
	if err := Forward3D(f, wavelet.CDF97, levels, 0); err != nil {
		t.Fatal(err)
	}
	// Count coefficients holding 99.99% of the energy.
	var total float64
	mags := make([]float64, len(f.Data))
	for i, v := range f.Data {
		mags[i] = v * v
		total += mags[i]
	}
	// Greedy: sort descending would be cleaner, but a threshold sweep
	// suffices: count coefficients above 1e-6 of the max magnitude.
	var maxMag float64
	for _, m := range mags {
		if m > maxMag {
			maxMag = m
		}
	}
	big := 0
	var bigEnergy float64
	for _, m := range mags {
		if m > 1e-8*maxMag {
			big++
			bigEnergy += m
		}
	}
	if frac := float64(big) / float64(len(mags)); frac > 0.5 {
		t.Errorf("smooth field: %.1f%% of coefficients significant, expected < 50%%", frac*100)
	}
	if bigEnergy/total < 0.9999 {
		t.Errorf("significant coefficients hold only %.6f of energy", bigEnergy/total)
	}
	_ = orig
}

func newTestWindow(rng *rand.Rand, d grid.Dims, slices int, temporalCoherence float64) *grid.Window {
	w := grid.NewWindow(d)
	base := randField(rng, d.Nx, d.Ny, d.Nz)
	for t := 0; t < slices; t++ {
		f := base.Clone()
		for i := range f.Data {
			f.Data[i] += temporalCoherence * math.Sin(float64(t)/3+float64(i%7))
		}
		if err := w.Append(f, float64(t)); err != nil {
			panic(err)
		}
	}
	return w
}

func TestLevelsTemporalMatchesPaper(t *testing.T) {
	cases := []struct {
		k        wavelet.Kernel
		ws, want int
	}{
		{wavelet.CDF97, 10, 1}, {wavelet.CDF97, 20, 2}, {wavelet.CDF97, 40, 3},
		{wavelet.CDF53, 10, 2}, {wavelet.CDF53, 20, 3}, {wavelet.CDF53, 40, 4},
		{wavelet.CDF97, 18, 2}, // the window size used in Section VI
	}
	for _, c := range cases {
		if got := LevelsTemporal(c.k, c.ws); got != c.want {
			t.Errorf("LevelsTemporal(%v, %d) = %d, want %d", c.k, c.ws, got, c.want)
		}
	}
}

func TestTemporalPerfectReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []wavelet.Kernel{wavelet.CDF97, wavelet.CDF53} {
		for _, ws := range []int{10, 18, 20, 40} {
			w := newTestWindow(rng, grid.Dims{Nx: 6, Ny: 5, Nz: 4}, ws, 1.0)
			orig := w.Clone()
			levels := LevelsTemporal(k, ws)
			if err := ForwardTemporal(w, k, levels, 2); err != nil {
				t.Fatalf("%v ws=%d: %v", k, ws, err)
			}
			if err := InverseTemporal(w, k, levels, 2); err != nil {
				t.Fatalf("%v ws=%d inverse: %v", k, ws, err)
			}
			for i := range w.Slices {
				if diff := maxDiff(orig.Slices[i].Data, w.Slices[i].Data); diff > 1e-9 {
					t.Errorf("%v ws=%d slice %d: error %.3g", k, ws, i, diff)
				}
			}
		}
	}
}

func TestTemporalRejectsBadLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := newTestWindow(rng, grid.Dims{Nx: 2, Ny: 2, Nz: 2}, 10, 1)
	if err := ForwardTemporal(w, wavelet.CDF97, 2, 1); err == nil {
		t.Error("expected error: 2 temporal levels with CDF 9/7 and window 10")
	}
	if err := ForwardTemporal(w, wavelet.CDF97, -1, 1); err == nil {
		t.Error("expected error for negative levels")
	}
}

func TestTemporalZeroLevelsIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := newTestWindow(rng, grid.Dims{Nx: 3, Ny: 3, Nz: 3}, 10, 1)
	orig := w.Clone()
	if err := ForwardTemporal(w, wavelet.CDF97, 0, 1); err != nil {
		t.Fatal(err)
	}
	for i := range w.Slices {
		if diff := maxDiff(orig.Slices[i].Data, w.Slices[i].Data); diff != 0 {
			t.Errorf("0-level temporal transform modified slice %d", i)
		}
	}
}

func TestForward4DPerfectReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := newTestWindow(rng, grid.Dims{Nx: 16, Ny: 12, Nz: 10}, 20, 1.0)
	orig := w.Clone()
	spec := Spec{
		SpatialKernel:  wavelet.CDF97,
		SpatialLevels:  -1,
		TemporalKernel: wavelet.CDF97,
		TemporalLevels: -1,
		Workers:        4,
	}
	if err := Forward4D(w, spec); err != nil {
		t.Fatal(err)
	}
	if err := Inverse4D(w, spec); err != nil {
		t.Fatal(err)
	}
	for i := range w.Slices {
		if diff := maxDiff(orig.Slices[i].Data, w.Slices[i].Data); diff > 1e-8 {
			t.Errorf("slice %d: reconstruction error %.3g", i, diff)
		}
	}
}

// The core claim of the paper: on temporally coherent data, the temporal
// transform concentrates energy — the detail slices (temporal highpass)
// carry far less energy than the original slices did.
func TestTemporalTransformCompactsCoherentData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	w := grid.NewWindow(d)
	base := randField(rng, d.Nx, d.Ny, d.Nz)
	for ts := 0; ts < 16; ts++ {
		f := base.Clone()
		for i := range f.Data {
			// Slowly varying in time: high temporal coherence.
			f.Data[i] *= 1 + 0.01*float64(ts)
		}
		if err := w.Append(f, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	energy := func(s *grid.Field3D) float64 {
		var e float64
		for _, v := range s.Data {
			e += v * v
		}
		return e
	}
	var beforeDetail float64
	for _, s := range w.Slices[8:] {
		beforeDetail += energy(s)
	}
	if err := ForwardTemporal(w, wavelet.CDF97, 1, 1); err != nil {
		t.Fatal(err)
	}
	var afterDetail float64
	for _, s := range w.Slices[8:] { // second half = temporal detail band
		afterDetail += energy(s)
	}
	if afterDetail > beforeDetail*0.01 {
		t.Errorf("temporal detail energy %.3g not < 1%% of original %.3g on coherent data", afterDetail, beforeDetail)
	}
}

func TestSpecResolve(t *testing.T) {
	s := Spec{
		SpatialKernel:  wavelet.CDF97,
		SpatialLevels:  -1,
		TemporalKernel: wavelet.CDF53,
		TemporalLevels: -1,
	}
	sp, tm := s.resolve(grid.Dims{Nx: 64, Ny: 64, Nz: 64}, 20)
	if sp != wavelet.MaxLevels(wavelet.CDF97, 64) {
		t.Errorf("spatial resolve = %d", sp)
	}
	if tm != 3 {
		t.Errorf("temporal resolve = %d, want 3 (CDF 5/3, window 20)", tm)
	}
	s.SpatialLevels, s.TemporalLevels = 2, 1
	sp, tm = s.resolve(grid.Dims{Nx: 64, Ny: 64, Nz: 64}, 20)
	if sp != 2 || tm != 1 {
		t.Errorf("explicit levels not honored: %d, %d", sp, tm)
	}
}

// TestSerialTransformAllocs pins DESIGN §6's promise that a budget of one
// worker runs allocation-free: Forward3D, Inverse3D, ForwardTemporal and
// InverseTemporal at workers = 1 take their slabs from the scratch pools
// and build no closures, so a warm call allocates nothing.
func TestSerialTransformAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	const k = wavelet.CDF97
	rng := rand.New(rand.NewSource(5))
	for _, d := range []grid.Dims{{Nx: 64, Ny: 64, Nz: 64}, {Nx: 32, Ny: 32, Nz: 32}, {Nx: 17, Ny: 12, Nz: 9}} {
		w := newTestWindow(rng, d, 10, 0.9)
		f := w.Slices[0]
		spatial, temporal := Levels3D(k, d), LevelsTemporal(k, w.Len())
		for _, c := range []struct {
			name string
			run  func() error
		}{
			{"Forward3D", func() error { return Forward3D(f, k, spatial, 1) }},
			{"Inverse3D", func() error { return Inverse3D(f, k, spatial, 1) }},
			{"ForwardTemporal", func() error { return ForwardTemporal(w, k, temporal, 1) }},
			{"InverseTemporal", func() error { return InverseTemporal(w, k, temporal, 1) }},
		} {
			// Settle the heap first: a collection started by the window's
			// allocation could otherwise empty the scratch pools mid-count.
			runtime.GC()
			if got := testing.AllocsPerRun(3, func() {
				if err := c.run(); err != nil {
					t.Fatal(err)
				}
			}); got != 0 {
				t.Errorf("%v %s: %v allocations per call, want 0", d, c.name, got)
			}
		}
	}
}
