package storage_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/storage"
)

// Example demonstrates the container workflow: write compressed windows to
// a file, then randomly access one window later.
func Example() {
	dir, err := os.MkdirTemp("", "stwave-example-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.stw")

	// Some smooth data.
	d := grid.Dims{Nx: 12, Ny: 12, Nz: 12}
	window := grid.NewWindow(d)
	for t := 0; t < 10; t++ {
		f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
		for i := range f.Data {
			f.Data[i] = math.Sin(0.1*float64(i) + 0.2*float64(t))
		}
		if err := window.Append(f, float64(t)); err != nil {
			panic(err)
		}
	}
	opts := core.DefaultOptions()
	opts.WindowSize = 10
	opts.Ratio = 16
	comp, err := core.New(opts)
	if err != nil {
		panic(err)
	}
	cw, err := core.Compress(context.Background(), comp, window, core.Copy)
	if err != nil {
		panic(err)
	}

	writer, err := storage.CreateContainer(path)
	if err != nil {
		panic(err)
	}
	writer.Deflate = true // format v2: DEFLATE entropy stage + CRC32
	if _, err := writer.Append(cw); err != nil {
		panic(err)
	}
	if err := writer.Close(); err != nil {
		panic(err)
	}

	reader, err := storage.OpenContainer(path)
	if err != nil {
		panic(err)
	}
	defer reader.Close()
	got, err := reader.ReadWindow(0)
	if err != nil {
		panic(err)
	}
	recon, err := core.Decompress(got)
	if err != nil {
		panic(err)
	}
	fmt.Printf("windows: %d\n", reader.NumWindows())
	fmt.Printf("reconstructed %d slices of %v\n", recon.Len(), recon.Dims)
	// Output:
	// windows: 1
	// reconstructed 10 slices of 12x12x12
}
