package stwave

// One benchmark per table and figure of the paper, plus ablation benches
// for the design choices DESIGN.md calls out. Each experiment benchmark
// runs the corresponding internal/experiments runner at test scale and
// reports headline quality numbers via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"stwave/internal/core"
	"stwave/internal/experiments"
	"stwave/internal/grid"
	"stwave/internal/server"
	"stwave/internal/storage"
	"stwave/internal/transform"
	"stwave/internal/wavelet"
)

func benchScale() experiments.Scale { return experiments.TestScale() }

// BenchmarkFig2KernelWindow regenerates Figures 2a/2b (kernel and window
// size study on Ghost velocity-x).
func BenchmarkFig2KernelWindow(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig2(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		base := r.Row("3D", 32)
		sweet := r.Row("4D CDF 9/7 ws=20", 32)
		if base != nil && sweet != nil && sweet.NRMSE > 0 {
			b.ReportMetric(base.NRMSE/sweet.NRMSE, "3D/4D-err@32:1")
		}
	}
}

// BenchmarkFig2cTemporalResolution regenerates Figure 2c (temporal
// resolution study).
func BenchmarkFig2cTemporalResolution(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig2c(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		full := r.Row(core.Spatiotemporal4D, 1, 32)
		quarter := r.Row(core.Spatiotemporal4D, 4, 32)
		if full != nil && quarter != nil && full.NRMSE > 0 {
			b.ReportMetric(quarter.NRMSE/full.NRMSE, "res1/4-over-res1-err")
		}
	}
}

// BenchmarkFig3Datasets regenerates all six panels of Figure 3.
func BenchmarkFig3Datasets(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig3(sc, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if row := r.Row("a", core.Spatiotemporal4D, 1, 32); row != nil {
			b.ReportMetric(row.NRMSE, "ghost-4D-NRMSE@32:1")
		}
	}
}

// BenchmarkTable1Performance regenerates Table I (I/O and compute cost).
func BenchmarkTable1Performance(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable1(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		if row := r.ProjectedRow("Raw"); row != nil {
			b.ReportMetric(row.TotalIO.Seconds(), "proj-raw-io-s")
		}
		if row := r.ProjectedRow("4D"); row != nil {
			b.ReportMetric(row.TotalIO.Seconds(), "proj-4D-io-s")
		}
	}
}

// BenchmarkTable2Pathlines regenerates Table II (pathline deviation).
func BenchmarkTable2Pathlines(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable2(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		r3 := r.Row(128, core.Spatial3D)
		r4 := r.Row(128, core.Spatiotemporal4D)
		if r3 != nil && r4 != nil {
			b.ReportMetric(r3.Errors[2], "3D-D150@128:1-pct")
			b.ReportMetric(r4.Errors[2], "4D-D150@128:1-pct")
		}
	}
}

// BenchmarkTable3Isosurface regenerates Table III (isosurface area error).
func BenchmarkTable3Isosurface(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable3(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		if row := r.Row("Cloud Mixing Ratio", 32); row != nil {
			b.ReportMetric(row.Error3D, "cloud-3D@32:1-pct")
			b.ReportMetric(row.Error4D, "cloud-4D@32:1-pct")
		}
	}
}

// --- Ablation and throughput benches -----------------------------------

func coherentBenchWindow(d grid.Dims, slices int) *grid.Window {
	rng := rand.New(rand.NewSource(42))
	w := grid.NewWindow(d)
	base := grid.NewField3D(d.Nx, d.Ny, d.Nz)
	for i := range base.Data {
		base.Data[i] = rng.NormFloat64()
	}
	// Smooth the base field so it compresses like simulation output.
	for pass := 0; pass < 2; pass++ {
		for z := 0; z < d.Nz; z++ {
			for y := 0; y < d.Ny; y++ {
				for x := 1; x < d.Nx; x++ {
					i := base.Index(x, y, z)
					base.Data[i] = 0.5*base.Data[i] + 0.5*base.Data[i-1]
				}
			}
		}
	}
	for t := 0; t < slices; t++ {
		f := base.Clone()
		scale := 1 + 0.02*float64(t)
		for i := range f.Data {
			f.Data[i] *= scale
		}
		if err := w.Append(f, float64(t)); err != nil {
			panic(err)
		}
	}
	return w
}

// BenchmarkAblationJointVsPerSliceBudget compares the paper's joint
// whole-window coefficient budget against per-slice budgeting in 4D mode.
func BenchmarkAblationJointVsPerSliceBudget(b *testing.B) {
	w := coherentBenchWindow(grid.Dims{Nx: 24, Ny: 24, Nz: 24}, 20)
	for _, perSlice := range []bool{false, true} {
		name := "joint"
		if perSlice {
			name = "per-slice"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.PerSliceBudget = perSlice
			comp, err := core.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compress(context.Background(), comp, w, core.Copy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTemporalLevels sweeps the temporal transform depth.
func BenchmarkAblationTemporalLevels(b *testing.B) {
	w := coherentBenchWindow(grid.Dims{Nx: 20, Ny: 20, Nz: 20}, 20)
	maxLvl := wavelet.MaxLevels(wavelet.CDF97, 20)
	for lvl := 0; lvl <= maxLvl; lvl++ {
		b.Run(fmt.Sprintf("levels-%d", lvl), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.TemporalLevels = lvl
			comp, err := core.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := core.Compress(context.Background(), comp, w, core.Copy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWorkers measures parallel scaling of the 4D transform.
func BenchmarkAblationWorkers(b *testing.B) {
	w := coherentBenchWindow(grid.Dims{Nx: 32, Ny: 32, Nz: 32}, 20)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			spec := transform.Spec{
				SpatialKernel:  wavelet.CDF97,
				SpatialLevels:  -1,
				TemporalKernel: wavelet.CDF97,
				TemporalLevels: -1,
				Workers:        workers,
			}
			for i := 0; i < b.N; i++ {
				work := w.Clone()
				if err := transform.Forward4D(work, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompressorThroughput measures end-to-end samples/sec of the two
// modes at the sweet spot.
func BenchmarkCompressorThroughput(b *testing.B) {
	w := coherentBenchWindow(grid.Dims{Nx: 32, Ny: 32, Nz: 32}, 20)
	for _, mode := range []core.Mode{core.Spatial3D, core.Spatiotemporal4D} {
		b.Run(mode.String(), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Mode = mode
			comp, err := core.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(w.TotalSamples()) * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compress(context.Background(), comp, w, core.Copy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecompress measures reconstruction cost.
func BenchmarkDecompress(b *testing.B) {
	w := coherentBenchWindow(grid.Dims{Nx: 32, Ny: 32, Nz: 32}, 20)
	comp, err := core.New(core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cw, err := core.Compress(context.Background(), comp, w, core.Copy)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(w.TotalSamples()) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decompress(cw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSlice measures the HTTP slice endpoint hot (window cache
// populated — the steady-state serving path) and cold (cache flushed every
// iteration, so each request pays a full ReadWindow + Decompress). The gap
// between the two is the cache's value; hot should be well over 10x
// faster.
func BenchmarkServeSlice(b *testing.B) {
	d := grid.Dims{Nx: 32, Ny: 32, Nz: 32}
	const slices, windowSize = 20, 10
	path := filepath.Join(b.TempDir(), "bench.stw")
	cont, err := storage.CreateContainer(path)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.WindowSize = windowSize
	writer, err := core.NewWriterOf[float64](opts, d, func(w *core.CompressedWindow) error {
		_, err := cont.Append(w)
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	for i, s := range coherentBenchWindow(d, slices).Slices {
		if err := writer.WriteSlice(s, float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := writer.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := cont.Close(); err != nil {
		b.Fatal(err)
	}

	srv := server.New(server.DefaultConfig())
	if err := srv.Mount("bench", path); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	handler := srv.Handler()

	serve := func(t int) {
		req := httptest.NewRequest("GET", fmt.Sprintf("/v1/bench/slice?t=%d", t), nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}

	b.Run("hot", func(b *testing.B) {
		serve(3) // warm the cache
		b.SetBytes(int64(d.Len()) * 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(3)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.SetBytes(int64(d.Len()) * 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.Cache().Flush()
			serve(3)
		}
	})
}

// BenchmarkCompareBaselines regenerates the rate-distortion comparison
// across compressor families (extension experiment).
func BenchmarkCompareBaselines(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunComparison(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rows := r.TechniqueRows("wavelet-4D+fl"); len(rows) > 0 {
			last := rows[len(rows)-1]
			b.ReportMetric(last.Ratio, "4D+fl-real-ratio")
		}
	}
}

// BenchmarkP3EqualStorage regenerates the P3 equal-storage study.
func BenchmarkP3EqualStorage(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunP3(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) > 0 {
			row := r.Rows[len(r.Rows)-1]
			if row.Odd4D > 0 {
				b.ReportMetric(row.Odd3D/row.Odd4D, "heldout-3D/4D-err")
			}
		}
	}
}

// BenchmarkSeamProfile regenerates the window-seam diagnostic.
func BenchmarkSeamProfile(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSeamProfile(sc, 10, 32, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.EdgeToCenterRatio(), "edge/center-err")
	}
}
