package synth

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"stwave/internal/grid"
	"stwave/internal/num"
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
// worker count and GOMAXPROCS only decide who computes which z-plane, and
// the AVX2 body, where there is one, agrees with the Go loop. Nx = 17 gives
// the body two lane groups and leaves the Go loop a one-lane tail.
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
	defer func() { useAVX2 = num.HaveAVX2 }()
	for _, avx2 := range []bool{num.HaveAVX2, false} {
		useAVX2 = avx2
		for _, workers := range []int{1, 2, 3, runtime.NumCPU(), d.Nz + 1} {
			for i, v := range sampleWith(workers) {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("avx2 %v, %d workers: sample %d = %v, 1 worker gave %v", avx2, workers, i, v, want[i])
				}
			}
		}
	}
	useAVX2 = num.HaveAVX2

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

// FuzzLatticeRowMatchesGo holds sumModes' AVX2 body to its Go loop bit
// for bit, any NaN matching any NaN: 1-80 modes, rows of 1-200 lanes (most
// not a multiple of 8), and tables and weights drawn from ordinary values
// and, at a density the input picks, ±0, subnormals, ±Inf, NaN and
// ±MaxFloat64. The row starts as NaN, so a body that accumulates into it
// rather than setting it fails.
func FuzzLatticeRowMatchesGo(f *testing.F) {
	if !num.HaveAVX2 {
		f.Skip("this build or CPU has no AVX2 lattice body")
	}
	f.Add(uint8(8), uint8(63), uint8(0), int64(1))
	f.Add(uint8(79), uint8(199), uint8(2), int64(2))
	f.Add(uint8(0), uint8(6), uint8(4), int64(3))
	f.Add(uint8(12), uint8(16), uint8(1), int64(4))
	tiny := math.SmallestNonzeroFloat64
	special := []float64{0, math.Copysign(0, -1), tiny, -tiny, 1000 * tiny,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64}
	f.Fuzz(func(t *testing.T, modes, lanes, density uint8, seed int64) {
		nm, n := 1+int(modes)%80, 1+int(lanes)%200
		rng := rand.New(rand.NewSource(seed))
		fill := func(k int) []float64 {
			s := make([]float64, k)
			for i := range s {
				if rng.Intn(8) < int(density)%5 {
					s[i] = special[rng.Intn(len(special))]
				} else {
					s[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				}
			}
			return s
		}
		sa, ca, p, q := fill(nm*n), fill(nm*n), fill(nm), fill(nm)
		defer func() { useAVX2 = num.HaveAVX2 }()
		rows := [2][]float64{make([]float64, n), make([]float64, n)}
		for i, avx2 := range []bool{false, true} {
			for j := range rows[i] {
				rows[i][j] = math.NaN()
			}
			useAVX2 = avx2
			sumModes(rows[i], sa, ca, p, q)
		}
		for j, want := range rows[0] {
			got := rows[1][j]
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%d modes, %d lanes, lane %d: avx2 %v (bits %x) != go %v (bits %x)",
					nm, n, j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
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
