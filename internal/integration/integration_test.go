// Package integration exercises whole pipelines across modules: simulation
// output through the streaming compressor into container files and back,
// the Lorenzo baseline against the wavelet codec on identical data, and fault
// injection on the on-disk formats.
package integration

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"stwave/internal/baseline"
	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/ingest"
	"stwave/internal/metrics"
	"stwave/internal/sim/ghost"
	"stwave/internal/storage"
)

// ghostWindow runs a short solver and collects slices.
func ghostWindow(t *testing.T, n, slices int) *grid.Window {
	t.Helper()
	s, err := ghost.NewSolver(ghost.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(30)
	w := grid.NewWindow(grid.Dims{Nx: n, Ny: n, Nz: n})
	for i := 0; i < slices; i++ {
		if err := w.Append(s.VelocityX(), s.Time()); err != nil {
			t.Fatal(err)
		}
		s.Run(2)
	}
	return w
}

// TestSimulationToContainerAndBack drives the full paper workflow:
// simulation -> ingest engine -> container file -> random access decode ->
// error measurement.
func TestSimulationToContainerAndBack(t *testing.T) {
	src := ghostWindow(t, 16, 25)
	dir := t.TempDir()
	path := filepath.Join(dir, "ghost.stw")

	container, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.WindowSize = 10
	opts.Ratio = 16
	eng, err := ingest.NewEngineOf[float64](ingest.Config{Opts: opts}, src.Dims, container)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ingest.NewWindowSourceOf(src), src.Len()); err != nil {
		t.Fatal(err)
	}
	if err := container.Close(); err != nil {
		t.Fatal(err)
	}

	reader, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if reader.NumWindows() != 3 { // 10 + 10 + 5
		t.Fatalf("container has %d windows, want 3", reader.NumWindows())
	}

	// Decode everything and measure aggregate error.
	ac := metrics.NewAccumulator()
	sliceIdx := 0
	for wi := 0; wi < reader.NumWindows(); wi++ {
		cw, err := reader.ReadWindow(wi)
		if err != nil {
			t.Fatal(err)
		}
		recon, err := core.Decompress(cw)
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range recon.Slices {
			if err := ac.Add(src.Slices[sliceIdx].Data, rs.Data); err != nil {
				t.Fatal(err)
			}
			sliceIdx++
		}
	}
	if sliceIdx != 25 {
		t.Fatalf("decoded %d slices, want 25", sliceIdx)
	}
	if e := ac.NRMSE(); e <= 0 || e > 0.05 {
		t.Errorf("end-to-end NRMSE %g outside plausible range (0, 0.05]", e)
	}

	// Random access: a single slice from the middle window must equal the
	// full decode.
	cw, err := reader.ReadWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	one, err := core.Reconstruct[float64](context.Background(), cw, core.Query{MaxLevel: core.All, Slice: 3})
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Decompress(cw)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range one.Slices[0].Data {
		if v != full.Slices[3].Data[i] {
			t.Fatal("random-access slice differs from full decode")
		}
	}
}

// TestWaveletVsLorenzoOnSameData compares the two compressors on identical
// simulation output at matched storage, documenting that both are credible
// and that the wavelet codec is competitive on smooth data.
func TestWaveletVsLorenzoOnSameData(t *testing.T) {
	w := ghostWindow(t, 16, 10)
	rawBytes := int64(w.TotalSamples()) * 4

	// Wavelet at 16:1.
	opts := core.DefaultOptions()
	opts.WindowSize = 10
	opts.Ratio = 16
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	recon, cw, err := comp.RoundTrip(w)
	if err != nil {
		t.Fatal(err)
	}
	acW := metrics.NewAccumulator()
	for i := range w.Slices {
		if err := acW.Add(w.Slices[i].Data, recon.Slices[i].Data); err != nil {
			t.Fatal(err)
		}
	}
	waveletErr := acW.NRMSE()
	waveletBytes := cw.IdealSizeBytes()

	// Lorenzo tuned to land near the same size by sweeping error bounds.
	rng := w.Range()
	var lorenzoErr float64
	var lorenzoBytes int64
	for _, frac := range []float64{1e-2, 3e-3, 1e-3, 3e-4, 1e-4} {
		c, err := baseline.Compress(w, frac*rng, true)
		if err != nil {
			t.Fatal(err)
		}
		if c.SizeBytes() <= waveletBytes || lorenzoBytes == 0 {
			lr, err := baseline.Decompress(c)
			if err != nil {
				t.Fatal(err)
			}
			ac := metrics.NewAccumulator()
			for i := range w.Slices {
				if err := ac.Add(w.Slices[i].Data, lr.Slices[i].Data); err != nil {
					t.Fatal(err)
				}
			}
			lorenzoErr = ac.NRMSE()
			lorenzoBytes = c.SizeBytes()
		}
	}
	t.Logf("raw %d B; wavelet: %d B, NRMSE %.3e; lorenzo: %d B, NRMSE %.3e",
		rawBytes, waveletBytes, waveletErr, lorenzoBytes, lorenzoErr)
	if waveletErr <= 0 || lorenzoErr <= 0 {
		t.Error("both compressors should be lossy at these settings")
	}
	// Sanity: both achieve real compression with bounded error.
	if waveletBytes >= rawBytes || lorenzoBytes >= rawBytes {
		t.Error("a compressor failed to compress")
	}
	if waveletErr > 0.1 || lorenzoErr > 0.1 {
		t.Error("a compressor produced implausibly large errors")
	}
}

// TestContainerFaultInjection flips bytes across a container file and
// checks that every corruption is either detected as an error or yields a
// well-formed (never panicking) result.
func TestContainerFaultInjection(t *testing.T) {
	w := ghostWindow(t, 8, 10)
	dir := t.TempDir()
	path := filepath.Join(dir, "data.stw")
	container, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.WindowSize = 10
	opts.Ratio = 8
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := core.Compress(context.Background(), comp, w, core.Copy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := container.Append(cw); err != nil {
		t.Fatal(err)
	}
	if err := container.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 3, 8, 20, len(data) / 2, len(data) - 10, len(data) - 1} {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0xFF
		cpath := filepath.Join(dir, "corrupt.stw")
		if err := os.WriteFile(cpath, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("corruption at byte %d caused panic: %v", pos, r)
				}
			}()
			r, err := storage.OpenContainer(cpath)
			if err != nil {
				return // detected at open: fine
			}
			defer r.Close()
			for i := 0; i < r.NumWindows(); i++ {
				cw, err := r.ReadWindow(i)
				if err != nil {
					continue // detected at read: fine
				}
				if _, err := core.Decompress(cw); err != nil {
					continue // detected at decompress: fine
				}
				// Silent corruption of float payload bits is acceptable
				// (no checksums by design); structural fields are checked.
			}
		}()
	}
}

// TestStaggeredGridsCompress verifies the CloverLeaf-style size split (N^3
// energy vs (N+1)^3 velocity) flows through the whole codec, including odd
// grid extents.
func TestStaggeredGridsCompress(t *testing.T) {
	for _, n := range []int{16, 17} { // 17 = odd extents throughout
		d := grid.Dims{Nx: n, Ny: n, Nz: n}
		w := grid.NewWindow(d)
		for ts := 0; ts < 10; ts++ {
			f := grid.NewField3D(n, n, n)
			for z := 0; z < n; z++ {
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						f.Set(x, y, z, math.Sin(0.4*float64(x)+0.3*float64(ts))*
							math.Cos(0.5*float64(y))+0.2*float64(z))
					}
				}
			}
			if err := w.Append(f, float64(ts)); err != nil {
				t.Fatal(err)
			}
		}
		opts := core.DefaultOptions()
		opts.WindowSize = 10
		opts.Ratio = 8
		comp, err := core.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		recon, _, err := comp.RoundTrip(w)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ac := metrics.NewAccumulator()
		for i := range w.Slices {
			if err := ac.Add(w.Slices[i].Data, recon.Slices[i].Data); err != nil {
				t.Fatal(err)
			}
		}
		if e := ac.NRMSE(); e > 0.05 {
			t.Errorf("n=%d: NRMSE %g", n, e)
		}
	}
}
