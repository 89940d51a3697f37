package ingest_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/ingest"
	"stwave/internal/storage"
)

// ExampleNewEngineOf streams a series of time slices into a container in
// windows, the interface a simulation or a set of raw files feeds through
// a SourceOf.
func ExampleNewEngineOf() {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	series := grid.NewWindow(d)
	for t := 0; t < 25; t++ {
		f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
		for i := range f.Data {
			f.Data[i] = math.Sin(0.05*float64(i) + 0.1*float64(t))
		}
		if err := series.Append(f, float64(t)); err != nil {
			panic(err)
		}
	}
	dir, err := os.MkdirTemp("", "ingest-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	cont, err := storage.CreateContainer(filepath.Join(dir, "series.stw"))
	if err != nil {
		panic(err)
	}
	opts := core.DefaultOptions() // 4D, window 20
	eng, err := ingest.NewEngineOf[float64](ingest.Config{Opts: opts}, d, cont)
	if err != nil {
		panic(err)
	}
	st, err := eng.Run(ingest.NewWindowSourceOf(series), series.Len())
	if err != nil {
		panic(err)
	}
	if err := cont.Close(); err != nil {
		panic(err)
	}
	fmt.Printf("%d slices in %d windows\n", st.SlicesIn, st.WindowsAppended)
	// Output:
	// 25 slices in 2 windows
}
