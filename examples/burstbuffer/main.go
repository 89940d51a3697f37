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
	"stwave/internal/sim/ghost"
	"stwave/internal/storage"
)

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
	writer, err := core.NewWriterOf[float64](opts, d, func(cw *core.CompressedWindow) error {
		idx, err := container.Append(cw)
		if err != nil {
			return err
		}
		if _, err := model.RecordWrite(storage.Permanent, cw.EncodedSizeBytes()); err != nil {
			return err
		}
		fmt.Printf("  flushed window %d: %d slices -> %d bytes on permanent storage\n",
			idx, cw.NumSlices(), cw.EncodedSizeBytes())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// The simulation loop: every few steps a slice goes through the buffer
	// tier (real files on disk, modeled timing) and into the stream writer.
	const slices = 40
	fmt.Printf("simulating %d output steps...\n", slices)
	for i := 0; i < slices; i++ {
		f := solver.Enstrophy()
		id, err := buffer.PutSlice(f)
		if err != nil {
			log.Fatal(err)
		}
		staged, err := buffer.GetSlice(id)
		if err != nil {
			log.Fatal(err)
		}
		if err := writer.WriteSlice(staged, solver.Time()); err != nil {
			log.Fatal(err)
		}
		if err := buffer.Drop(id); err != nil {
			log.Fatal(err)
		}
		solver.Run(2)
	}
	if err := writer.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := container.Close(); err != nil {
		log.Fatal(err)
	}

	st := writer.Stats()
	rawBytes := int64(st.SlicesIn) * int64(d.Len()) * 4
	fmt.Printf("\nstream: %d slices in, %d windows out\n", st.SlicesIn, st.WindowsOut)
	fmt.Printf("raw data: %d bytes; encoded: %d bytes (%.1f:1 effective)\n",
		rawBytes, st.BytesEncoded, float64(rawBytes)/float64(st.BytesEncoded))
	fmt.Printf("modeled I/O — buffer W+R: %.3fs + %.3fs, permanent write: %.3fs, total: %.3fs\n",
		model.WriteTime(storage.Buffer).Seconds(),
		model.ReadTime(storage.Buffer).Seconds(),
		model.WriteTime(storage.Permanent).Seconds(),
		model.TotalIO().Seconds())

	// Random access: decode just the second window from the container.
	reader, err := storage.OpenContainer(containerPath)
	if err != nil {
		log.Fatal(err)
	}
	defer reader.Close()
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
