// Burstbuffer: reproduce the paper's Figure 1 workflow — a simulation
// streams time slices through an SSD staging area, windows are compressed
// spatiotemporally, and compressed windows land in a container on
// "permanent storage", with the Table I cost accounting.
//
//	go run ./examples/burstbuffer
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/ingest"
	"stwave/internal/sim/ghost"
	"stwave/internal/storage"
)

// stagedSource is the simulation as the ingest engine sees it: every
// slice goes through the buffer tier (real files on disk, modeled timing)
// before it is compressed, and the solver advances two steps per slice.
type stagedSource struct {
	solver *ghost.Solver
	buffer *storage.BurstBuffer
}

func (s stagedSource) Dims() grid.Dims {
	n := s.solver.N()
	return grid.Dims{Nx: n, Ny: n, Nz: n}
}

func (s stagedSource) Next(dst *grid.Field3D) (float64, error) {
	t := s.solver.Time()
	id, err := storage.PutSliceOf(s.buffer, s.solver.Enstrophy())
	if err != nil {
		return 0, err
	}
	staged, err := storage.GetSliceOf[float64](s.buffer, id)
	if err != nil {
		return 0, err
	}
	copy(dst.Data, staged.Data)
	s.solver.Run(2)
	return t, s.buffer.Drop(id)
}

func (s stagedSource) Skip() (float64, error) {
	t := s.solver.Time()
	s.solver.Run(2)
	return t, nil
}

func main() {
	// A small forced-turbulence run as the "simulation code".
	solver, err := ghost.NewSolver(ghost.DefaultConfig(16))
	if err != nil {
		log.Fatal(err)
	}
	solver.Run(50)

	dir, err := os.MkdirTemp("", "stwave-bb-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	model := storage.DefaultModel()
	buffer, err := storage.NewBurstBuffer(dir, model, d)
	if err != nil {
		log.Fatal(err)
	}

	containerPath := filepath.Join(dir, "ghost-enstrophy.stw")
	container, err := storage.CreateContainer(containerPath)
	if err != nil {
		log.Fatal(err)
	}

	opts := core.DefaultOptions() // 4D, CDF 9/7, window 20, 32:1
	opts.Ratio = 16
	eng, err := ingest.NewEngineOf[float64](ingest.Config{Opts: opts}, d, container)
	if err != nil {
		log.Fatal(err)
	}
	const slices = 40
	fmt.Printf("simulating %d output steps...\n", slices)
	st, err := eng.Run(stagedSource{solver: solver, buffer: buffer}, slices)
	if err != nil {
		log.Fatal(err)
	}
	if err := container.Close(); err != nil {
		log.Fatal(err)
	}

	reader, err := storage.OpenContainer(containerPath)
	if err != nil {
		log.Fatal(err)
	}
	defer reader.Close()
	for i := 0; i < reader.NumWindows(); i++ {
		wi, err := reader.WindowInfo(i)
		if err != nil {
			log.Fatal(err)
		}
		n, err := reader.WindowSizeBytes(i)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := model.RecordWrite(storage.Permanent, n); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  window %d: %d slices -> %d bytes on permanent storage\n", i, wi.NumSlices, n)
	}

	rawBytes := int64(st.SlicesIn) * int64(d.Len()) * 4
	fmt.Printf("\nstream: %d slices in, %d windows out\n", st.SlicesIn, st.WindowsAppended)
	fmt.Printf("raw data: %d bytes; encoded: %d bytes (%.1f:1 effective)\n",
		rawBytes, st.BytesEncoded, float64(rawBytes)/float64(st.BytesEncoded))
	fmt.Printf("modeled I/O — buffer W+R: %.3fs + %.3fs, permanent write: %.3fs, total: %.3fs\n",
		model.WriteTime(storage.Buffer).Seconds(),
		model.ReadTime(storage.Buffer).Seconds(),
		model.WriteTime(storage.Permanent).Seconds(),
		model.TotalIO().Seconds())

	// Random access: decode just the second window from the container.
	cw, err := reader.ReadWindow(1)
	if err != nil {
		log.Fatal(err)
	}
	win, err := core.Decompress(cw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("random access: window 1 decodes to %d slices starting at t=%.2f\n",
		win.Len(), win.Times[0])
}
