package core_test

import (
	"context"
	"fmt"
	"math"

	"stwave/internal/core"
	"stwave/internal/grid"
)

// buildWindow makes a deterministic smooth time-varying field.
func buildWindow() *grid.Window {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	w := grid.NewWindow(d)
	for t := 0; t < 20; t++ {
		f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
		for z := 0; z < d.Nz; z++ {
			for y := 0; y < d.Ny; y++ {
				for x := 0; x < d.Nx; x++ {
					phase := 2 * math.Pi * (float64(x)/16 + 0.02*float64(t))
					f.Set(x, y, z, math.Sin(phase)*math.Cos(2*math.Pi*float64(y)/16))
				}
			}
		}
		if err := w.Append(f, float64(t)); err != nil {
			panic(err)
		}
	}
	return w
}

// Example demonstrates the basic compress/decompress round trip with the
// paper's sweet-spot configuration.
func Example() {
	window := buildWindow()

	comp, err := core.New(core.DefaultOptions()) // 4D, CDF 9/7, window 20, 32:1
	if err != nil {
		panic(err)
	}
	compressed, err := core.Compress(context.Background(), comp, window, core.Copy)
	if err != nil {
		panic(err)
	}
	recon, err := core.Decompress(compressed)
	if err != nil {
		panic(err)
	}

	fmt.Printf("slices: %d -> %d\n", window.Len(), recon.Len())
	fmt.Printf("kept %d of %d coefficients\n",
		compressed.RetainedCoefficients(), window.TotalSamples())
	// Output:
	// slices: 20 -> 20
	// kept 2560 of 81920 coefficients
}

// ExampleNewWriterOf shows the streaming interface a simulation would use.
func ExampleNewWriterOf() {
	window := buildWindow()
	flushed := 0
	writer, err := core.NewWriterOf[float64](core.DefaultOptions(), window.Dims,
		func(cw *core.CompressedWindow) error {
			flushed++
			return nil
		})
	if err != nil {
		panic(err)
	}
	for i, s := range window.Slices {
		if err := writer.WriteSlice(s, float64(i)); err != nil {
			panic(err)
		}
	}
	if err := writer.Flush(); err != nil {
		panic(err)
	}
	fmt.Printf("windows flushed: %d\n", flushed)
	// Output:
	// windows flushed: 1
}

// ExampleReconstruct shows single-slice random access from a 4D window.
func ExampleReconstruct() {
	window := buildWindow()
	comp, err := core.New(core.DefaultOptions())
	if err != nil {
		panic(err)
	}
	compressed, err := core.Compress(context.Background(), comp, window, core.Copy)
	if err != nil {
		panic(err)
	}
	slice, err := core.Reconstruct[float64](context.Background(), compressed, core.Query{MaxLevel: core.All, Slice: 7})
	if err != nil {
		panic(err)
	}
	fmt.Printf("decoded one %v slice from a %d-slice window\n",
		slice.Dims, compressed.NumSlices())
	// Output:
	// decoded one 16x16x16 slice from a 20-slice window
}
