package core

import (
	"context"
	"math"
	"testing"

	"stwave/internal/grid"
	"stwave/internal/num"
)

// benchWindow builds a temporally coherent window matching the perf
// suite's workload shape.
func benchWindow(n, slices int) *grid.Window {
	d := grid.Dims{Nx: n, Ny: n, Nz: n}
	w := grid.NewWindow(d)
	for t := 0; t < slices; t++ {
		f := grid.NewField3D(n, n, n)
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					f.Data[f.Index(x, y, z)] = math.Sin(0.3*float64(x)+0.1*float64(t)) *
						math.Cos(0.2*float64(y)) * math.Sin(0.25*float64(z)+0.05*float64(t))
				}
			}
		}
		if err := w.Append(f, float64(t)); err != nil {
			panic(err)
		}
	}
	return w
}

func benchWindow32(src *grid.Window) *grid.Window32 {
	w := grid.NewWindow32(src.Dims)
	for i, s := range src.Slices {
		f := grid.NewField3D32(src.Dims.Nx, src.Dims.Ny, src.Dims.Nz)
		num.Convert(f.Data, s.Data)
		if err := w.Append(f, src.Times[i]); err != nil {
			panic(err)
		}
	}
	return w
}

func benchCompressor(b *testing.B) *Compressor {
	opts := DefaultOptions()
	opts.WindowSize = 5
	opts.Ratio = 32
	comp, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	return comp
}

func BenchmarkCompressWindow(b *testing.B) {
	w := benchWindow(24, 10)
	comp := benchCompressor(b)
	b.SetBytes(int64(w.TotalSamples()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(context.Background(), comp, w, Copy); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressWindow32(b *testing.B) {
	w := benchWindow32(benchWindow(24, 10))
	comp := benchCompressor(b)
	b.SetBytes(int64(w.TotalSamples()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(context.Background(), comp, w, Copy); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressWindow(b *testing.B) {
	w := benchWindow(24, 10)
	comp := benchCompressor(b)
	cw, err := Compress(context.Background(), comp, w, Copy)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(w.TotalSamples()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(cw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressWindow32(b *testing.B) {
	w := benchWindow32(benchWindow(24, 10))
	comp := benchCompressor(b)
	cw, err := Compress(context.Background(), comp, w, Copy)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(w.TotalSamples()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress32(cw); err != nil {
			b.Fatal(err)
		}
	}
}
