package synth

import (
	"runtime"
	"sync"
	"testing"

	"stwave/internal/grid"
)

// benchField is the benchmark fixture's ensemble: 8 modes.
func benchField(tb testing.TB) *Field {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Modes = 8
	f, err := NewField(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func TestSampleRejectsInvalidDims(t *testing.T) {
	f := benchField(t)
	if err := f.SampleScalarInto(&grid.Field3D{Dims: grid.Dims{Nx: 4, Ny: 0, Nz: 4}}, 0); err == nil {
		t.Error("SampleScalarInto accepted a zero extent")
	}
	if err := SampleScalarIntoOf(f, &grid.Field3D32{Dims: grid.Dims{Nx: -1, Ny: 4, Nz: 4}}, 0); err == nil {
		t.Error("SampleScalarIntoOf[float32] accepted a negative extent")
	}
	if _, err := f.SampleScalar(4, 4, 0, 0); err == nil {
		t.Error("SampleScalar accepted a zero extent")
	}
	if _, err := f.SampleVelocityX(0, 4, 4, 0); err == nil {
		t.Error("SampleVelocityX accepted a zero extent")
	}
}

// The sampled bytes are a pure function of (ensemble, lattice, t): the
// worker count and GOMAXPROCS only decide who computes which z-plane.
func TestSampleIdenticalAcrossWorkerCounts(t *testing.T) {
	f := benchField(t)
	d := grid.Dims{Nx: 17, Ny: 5, Nz: 7}
	comps := []Component{Scalar, VelocityY}
	sampleWith := func(workers int) []float64 {
		out := make([]float64, len(comps)*d.Len())
		err := f.sampleRows(UnitLattice(d), 2.5, comps, workers, func(j, k int, vals [][]float64) {
			for c, row := range vals {
				copy(out[c*d.Len()+(k*d.Ny+j)*d.Nx:], row)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := sampleWith(1)
	for _, workers := range []int{2, 3, runtime.NumCPU(), d.Nz + 1} {
		for i, v := range sampleWith(workers) {
			if v != want[i] {
				t.Fatalf("%d workers: sample %d = %v, 1 worker gave %v", workers, i, v, want[i])
			}
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got, err := f.SampleScalar(d.Nx, d.Ny, d.Nz, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Data {
		if v != want[i] {
			t.Fatalf("GOMAXPROCS=1: sample %d = %v, want %v", i, v, want[i])
		}
	}
}

// Field is documented safe for concurrent sampling; run under -race.
func TestConcurrentSampling(t *testing.T) {
	f := benchField(t)
	want, err := f.SampleScalar(12, 10, 8, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := grid.NewField3D(12, 10, 8)
			for rep := 0; rep < 20; rep++ {
				if err := f.SampleScalarInto(dst, 1.5); err != nil {
					t.Error(err)
					return
				}
				for i, v := range dst.Data {
					if v != want.Data[i] {
						t.Errorf("concurrent sample %d = %v, want %v", i, v, want.Data[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// A fill allocates its tables (modes × (nx+ny+nz) entries) and per-worker
// rows, never per grid point: the count must not grow with the grid.
func TestSampleIntoAllocsIndependentOfGridSize(t *testing.T) {
	f := benchField(t)
	allocs := func(n int) float64 {
		dst := grid.NewField3D(n, n, n)
		return testing.AllocsPerRun(10, func() {
			if err := f.SampleScalarInto(dst, 2.5); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(32)
	if bound := float64(8 + 4*runtime.NumCPU()); small > bound || large > small {
		t.Errorf("allocs per fill: %g at 8³, %g at 32³; want <= %g and not growing", small, large, bound)
	}
}

func BenchmarkSampleScalarInto(b *testing.B) {
	f := benchField(b)
	dst := grid.NewField3D(64, 64, 64)
	b.SetBytes(int64(8 * dst.Dims.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SampleScalarIntoOf(f, dst, 2.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleScalarInto32(b *testing.B) {
	f := benchField(b)
	dst := grid.NewField3D32(64, 64, 64)
	b.SetBytes(int64(4 * dst.Dims.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SampleScalarIntoOf(f, dst, 2.5); err != nil {
			b.Fatal(err)
		}
	}
}
