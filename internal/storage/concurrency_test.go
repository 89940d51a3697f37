package storage

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"stwave/internal/core"
	"stwave/internal/grid"
)

// buildTestContainer writes numWindows windows (windowSize slices each,
// with a distinct mean per window so misdirected reads are detectable) and
// returns the container path.
func buildTestContainer(t testing.TB, numWindows, windowSize int, d grid.Dims) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "conc.stw")
	opts := core.DefaultOptions()
	opts.WindowSize = windowSize
	opts.Ratio = 8
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	for wi := 0; wi < numWindows; wi++ {
		win := grid.NewWindow(d)
		for ts := 0; ts < windowSize; ts++ {
			f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
			for i := range f.Data {
				f.Data[i] = float64(wi*100) + math.Sin(float64(i)*0.1+float64(ts)*0.2)
			}
			if err := win.Append(f, float64(wi*windowSize+ts)); err != nil {
				t.Fatal(err)
			}
		}
		cw, err := core.Compress(context.Background(), comp, win, core.Copy)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(cw); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadWindowConcurrent asserts that one ContainerReader can serve many
// goroutines at once — the contract the HTTP server relies on when sharing
// a reader across requests. Run with -race (make check does).
func TestReadWindowConcurrent(t *testing.T) {
	const numWindows, windowSize = 4, 3
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	path := buildTestContainer(t, numWindows, windowSize, d)

	r, err := OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Sequential ground truth, one decompressed mean per window.
	wantMean := make([]float64, numWindows)
	for wi := 0; wi < numWindows; wi++ {
		cw, err := r.ReadWindow(wi)
		if err != nil {
			t.Fatal(err)
		}
		win, err := core.Decompress(cw)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range win.Slices[0].Data {
			sum += v
		}
		wantMean[wi] = sum / float64(len(win.Slices[0].Data))
	}

	const goroutines = 16
	const reads = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*reads)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				wi := (g + i) % numWindows
				cw, err := r.ReadWindow(wi)
				if err != nil {
					errs <- err
					return
				}
				if cw.NumSlices() != windowSize {
					errs <- fmt.Errorf("window %d: %d slices, want %d", wi, cw.NumSlices(), windowSize)
					return
				}
				win, err := core.Decompress(cw)
				if err != nil {
					errs <- err
					return
				}
				sum := 0.0
				for _, v := range win.Slices[0].Data {
					sum += v
				}
				if mean := sum / float64(len(win.Slices[0].Data)); math.Abs(mean-wantMean[wi]) > 1e-9 {
					errs <- fmt.Errorf("window %d: concurrent mean %g != sequential %g", wi, mean, wantMean[wi])
					return
				}
				// Interleave header-only reads with full reads.
				info, err := r.WindowInfo(wi)
				if err != nil {
					errs <- err
					return
				}
				if info.Dims != d || info.NumSlices != windowSize {
					errs <- fmt.Errorf("window %d info = %+v", wi, info)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBurstBufferConcurrent races Put, Get, Drop, and Len from many
// goroutines — the in-situ pattern where simulation ranks stage slices
// while the compressor drains them. Run with -race (make check does).
func TestBurstBufferConcurrent(t *testing.T) {
	d := grid.Dims{Nx: 6, Ny: 5, Nz: 4}
	b, err := NewBurstBuffer(t.TempDir(), DefaultModel(), d)
	if err != nil {
		t.Fatal(err)
	}

	const producers = 8
	const slicesEach = 6
	ids := make(chan int, producers*slicesEach)
	var wg sync.WaitGroup
	errs := make(chan error, producers*slicesEach*2)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for s := 0; s < slicesEach; s++ {
				f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
				for i := range f.Data {
					f.Data[i] = float64(p)
				}
				id, err := PutSliceOf(b, f)
				if err != nil {
					errs <- err
					return
				}
				b.Len() // racing reads of the live map
				ids <- id
			}
		}(p)
	}

	// Consumers drain concurrently with the producers: read each slice
	// back, check it is internally consistent, then drop it.
	var cg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for id := range ids {
				f, err := GetSliceOf[float64](b, id)
				if err != nil {
					errs <- fmt.Errorf("get %d: %w", id, err)
					continue
				}
				for i := range f.Data {
					if f.Data[i] != f.Data[0] {
						errs <- fmt.Errorf("slice %d not uniform: %g vs %g", id, f.Data[i], f.Data[0])
						break
					}
				}
				if err := b.Drop(id); err != nil {
					errs <- fmt.Errorf("drop %d: %w", id, err)
				}
			}
		}()
	}

	wg.Wait()
	close(ids)
	cg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if b.Len() != 0 {
		t.Errorf("%d slices left after drain", b.Len())
	}
	one, _ := b.model.WriteCost(Buffer, grid.NewField3D(d.Nx, d.Ny, d.Nz).RawSizeBytes(4))
	if got, want := b.model.WriteTime(Buffer), time.Duration(producers*slicesEach)*one; got != want {
		t.Errorf("model recorded %v of writes, want %v", got, want)
	}
}

func TestWindowInfoMatchesFullRead(t *testing.T) {
	d := grid.Dims{Nx: 10, Ny: 8, Nz: 12}
	path := buildTestContainer(t, 2, 4, d)
	r, err := OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for wi := 0; wi < r.NumWindows(); wi++ {
		info, err := r.WindowInfo(wi)
		if err != nil {
			t.Fatal(err)
		}
		cw, err := r.ReadWindow(wi)
		if err != nil {
			t.Fatal(err)
		}
		if info.Dims != cw.Dims || info.NumSlices != cw.NumSlices() {
			t.Errorf("window %d: info %+v vs full %v/%d", wi, info, cw.Dims, cw.NumSlices())
		}
		if info.Mode != cw.Opts.Mode || info.SpatialKernel != cw.Opts.SpatialKernel {
			t.Errorf("window %d: info mode/kernel %v/%v vs %v/%v",
				wi, info.Mode, info.SpatialKernel, cw.Opts.Mode, cw.Opts.SpatialKernel)
		}
		if want := int64(d.Len()) * int64(cw.NumSlices()) * 8; info.RawSizeBytes() != want {
			t.Errorf("window %d: RawSizeBytes %d, want %d", wi, info.RawSizeBytes(), want)
		}
	}
	if _, err := r.WindowInfo(-1); err == nil {
		t.Error("out-of-range WindowInfo must fail")
	}
	if _, err := r.WindowInfo(99); err == nil {
		t.Error("out-of-range WindowInfo must fail")
	}
}
