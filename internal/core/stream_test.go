package core_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/ingest"
	"stwave/internal/num"
	"stwave/internal/obs"
	"stwave/internal/storage"
	"stwave/internal/wavelet"
)

// These tests pin the stream-to-window contract of the compressor as the
// one streaming path, the ingest engine, delivers it: a slice stream is
// cut into windows of Options.SlicesPerWindow slices, each compressed in
// place into the same bytes as a Compress(Copy) of that run of slices.

// series is n smooth time slices of dims at times 0..n-1.
func series[F num.Float](d grid.Dims, n int, phase float64) *grid.WindowOf[F] {
	w := grid.NewWindowOf[F](d)
	for t := range n {
		f := grid.NewField3DOf[F](d.Nx, d.Ny, d.Nz)
		for z := range d.Nz {
			for y := range d.Ny {
				for x := range d.Nx {
					v := math.Sin(0.4*float64(x)+phase)*math.Cos(0.3*float64(y)+0.05*float64(t)) + 0.1*float64(z)
					f.Set(x, y, z, F(v))
				}
			}
		}
		if err := w.Append(f, float64(t)); err != nil {
			panic(err)
		}
	}
	return w
}

// streamWindows runs src through an engine under cfg into a fresh
// container and returns the run's stats and the windows it journaled.
func streamWindows[F num.Float](t *testing.T, cfg ingest.Config, src *grid.WindowOf[F]) (ingest.Stats, []*core.CompressedWindow) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.stw")
	w, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ingest.NewEngineOf[F](cfg, src.Dims, w)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.RunCtx(context.Background(), ingest.NewWindowSourceOf(src), src.Len())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := make([]*core.CompressedWindow, r.NumWindows())
	for i := range out {
		if out[i], err = r.ReadWindow(i); err != nil {
			t.Fatal(err)
		}
	}
	return st, out
}

func serialized(t *testing.T, cw *core.CompressedWindow) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkStreamMatchesCopy[F num.Float](t *testing.T, opts core.Options, src *grid.WindowOf[F]) {
	t.Helper()
	c, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := src.Partition(opts.SlicesPerWindow())
	if err != nil {
		t.Fatal(err)
	}
	_, got := streamWindows(t, ingest.Config{Opts: opts}, src)
	if len(got) != len(chunks) {
		t.Fatalf("stream emitted %d windows, want %d", len(got), len(chunks))
	}
	for i, chunk := range chunks {
		want, err := core.Compress(context.Background(), c, chunk, core.Copy)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serialized(t, got[i]), serialized(t, want)) {
			t.Fatalf("window %d: stream bytes differ from Compress(Copy)", i)
		}
	}
}

// TestWriterMatchesCompressCopy: the streamed windows, compressed in
// place, are byte-identical to Compress(Copy) on the same slices, at both
// precisions, in both modes and under TargetNRMSE. The grid and window are large enough for
// one spatial and one temporal level, so the transform really runs.
func TestWriterMatchesCompressCopy(t *testing.T) {
	d := grid.Dims{Nx: 20, Ny: 18, Nz: 16}
	opts := core.DefaultOptions()
	opts.WindowSize = 10
	opts.Ratio = 16
	opts.Workers = 2
	checkStreamMatchesCopy(t, opts, series[float64](d, 25, 0.3))
	checkStreamMatchesCopy(t, opts, series[float32](d, 25, 0.6))
	opts.Mode = core.Spatial3D
	checkStreamMatchesCopy(t, opts, series[float64](d, 3, 0.3))
	checkStreamMatchesCopy(t, opts, series[float32](d, 3, 0.6))
	opts.Mode, opts.TargetNRMSE = core.Spatiotemporal4D, 1e-3
	checkStreamMatchesCopy(t, opts, series[float64](d, 25, 0.3))
	checkStreamMatchesCopy(t, opts, series[float32](d, 25, 0.6))
}

// TestStreamWriter4D: 25 slices at window 10 become windows of 10, 10
// and a short trailing 5, with every slice time carried through. With a
// budget of one window the engine holds exactly one window of float64
// samples at its peak.
func TestStreamWriter4D(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	opts := core.DefaultOptions()
	opts.WindowSize = 10
	opts.Ratio = 8
	oneWindow := int64(10*d.Len()) * 8
	st, got := streamWindows(t, ingest.Config{Opts: opts, MemBudget: oneWindow}, series[float64](d, 25, 0))
	wantLens := []int{10, 10, 5}
	if len(got) != len(wantLens) {
		t.Fatalf("%d windows, want %d", len(got), len(wantLens))
	}
	for i, cw := range got {
		if cw.NumSlices() != wantLens[i] {
			t.Errorf("window %d has %d slices, want %d", i, cw.NumSlices(), wantLens[i])
		}
	}
	if st.SlicesIn != 25 || st.WindowsAppended != 3 || st.WindowsShed != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.PeakInFlightBytes != oneWindow {
		t.Errorf("peak in flight = %d, want %d", st.PeakInFlightBytes, oneWindow)
	}
	if got[2].Times[0] != 20 {
		t.Errorf("third window starts at t=%g, want 20", got[2].Times[0])
	}
}

// TestStreamWriter3DFlushesImmediately: in 3D mode every slice is its own
// window, whatever WindowSize says.
func TestStreamWriter3DFlushesImmediately(t *testing.T) {
	d := grid.Dims{Nx: 6, Ny: 6, Nz: 6}
	opts := core.Options{Mode: core.Spatial3D, SpatialKernel: wavelet.CDF97, Ratio: 8, SpatialLevels: -1, WindowSize: 20}
	st, got := streamWindows(t, ingest.Config{Opts: opts}, series[float64](d, 5, 0))
	if len(got) != 5 || st.WindowsAppended != 5 {
		t.Fatalf("3D mode journaled %d windows (stats %+v) for 5 slices", len(got), st)
	}
	for i, cw := range got {
		if cw.NumSlices() != 1 || cw.Times[0] != float64(i) {
			t.Errorf("3D window %d has %d slices from t=%g", i, cw.NumSlices(), cw.Times[0])
		}
	}
}

// TestStreamWriterValidation: a nil container, invalid dims and a source
// whose slices do not match the engine's dims are all refused.
func TestStreamWriterValidation(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	cfg := ingest.Config{Opts: core.DefaultOptions()}
	if _, err := ingest.NewEngineOf[float64](cfg, d, nil); err == nil {
		t.Error("expected error for nil container writer")
	}
	w, err := storage.CreateContainer(filepath.Join(t.TempDir(), "v.stw"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := ingest.NewEngineOf[float64](cfg, grid.Dims{}, w); err == nil {
		t.Error("expected error for invalid dims")
	}
	eng, err := ingest.NewEngineOf[float64](cfg, d, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ingest.NewWindowSourceOf(series[float64](grid.Dims{Nx: 5, Ny: 4, Nz: 4}, 1, 0)), 1); err == nil {
		t.Error("expected error for mismatched slice dims")
	}
}

// TestWriter32Stream: a float32 stream of 10 slices at window 4 becomes
// 4+4+2 float32 windows, and the engine's window buffer holds float32
// samples: a one-window budget peaks at 4 slices of 4-byte samples.
func TestWriter32Stream(t *testing.T) {
	d := grid.Dims{Nx: 10, Ny: 8, Nz: 6}
	o := core.DefaultOptions()
	o.WindowSize = 4
	oneWindow := int64(d.Len()) * 4 * 4
	st, got := streamWindows(t, ingest.Config{Opts: o, MemBudget: oneWindow}, series[float32](d, 10, 0.2))
	if len(got) != 3 {
		t.Fatalf("got %d windows, want 3 (4+4+2 slices)", len(got))
	}
	for i, cw := range got {
		if cw.Precision != core.Float32 {
			t.Fatalf("window %d precision %v, want Float32", i, cw.Precision)
		}
		if want := []int{4, 4, 2}[i]; cw.NumSlices() != want {
			t.Fatalf("window %d has %d slices, want %d", i, cw.NumSlices(), want)
		}
	}
	if st.SlicesIn != 10 || st.WindowsAppended != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PeakInFlightBytes != oneWindow {
		t.Fatalf("peak in flight %d bytes, want %d (float32 samples)", st.PeakInFlightBytes, oneWindow)
	}
}

// TestWriter3DLeavesCallerSlice: a 3D stream compresses each slice in the
// engine's own buffer, yet the caller's slices are unchanged.
func TestWriter3DLeavesCallerSlice(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	src := series[float64](d, 2, 0)
	before := src.Clone()
	opts := core.DefaultOptions()
	opts.Mode = core.Spatial3D
	if _, got := streamWindows(t, ingest.Config{Opts: opts}, src); len(got) != 2 {
		t.Fatalf("emitted %d windows for 2 slices in 3D mode", len(got))
	}
	for i, s := range src.Slices {
		for j, v := range before.Slices[i].Data {
			if s.Data[j] != v {
				t.Fatalf("slice %d sample %d changed by the stream", i, j)
			}
		}
	}
}

// TestWriterCopiesEachSliceOnce: a 4D stream without MaxErr compresses
// the window it owns in place, so no working copy is made.
func TestWriterCopiesEachSliceOnce(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	opts := core.DefaultOptions()
	opts.WindowSize = 4
	clones := obs.Default().Counter("core.window_clone_bytes_total")
	before := clones.Load()
	if _, got := streamWindows(t, ingest.Config{Opts: opts}, series[float64](d, 8, 0)); len(got) != 2 {
		t.Fatalf("emitted %d windows, want 2", len(got))
	}
	if got := clones.Load() - before; got != 0 {
		t.Fatalf("stream cloned %d window bytes, want 0", got)
	}
}

// failingFile is a container file every write to which fails with err.
type failingFile struct{ err error }

func (f failingFile) WriteAt([]byte, int64) (int, error) { return 0, f.err }
func (f failingFile) Truncate(int64) error               { return nil }
func (f failingFile) Sync() error                        { return nil }
func (f failingFile) Close() error                       { return nil }

var _ storage.WritableFile = failingFile{}

// TestWriterSinkErrorPropagates: when the container cannot take a window,
// the run fails once the stall deadline passes, naming the write error,
// and nothing is counted as appended.
func TestWriterSinkErrorPropagates(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	opts := core.DefaultOptions()
	opts.WindowSize = 2
	boom := errors.New("sink exploded")
	eng, err := ingest.NewEngineOf[float64](ingest.Config{
		Opts: opts, Deadline: 50 * time.Millisecond, RetryEvery: 2 * time.Millisecond,
	}, d, storage.NewContainerWriter(failingFile{boom}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(ingest.NewWindowSourceOf(series[float64](d, 4, 0)), 4)
	if !errors.Is(err, ingest.ErrDeadline) || !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("Run = %v, want the deadline error naming %q", err, boom)
	}
	if st.WindowsAppended != 0 {
		t.Fatalf("stats = %+v, want no window appended", st)
	}
}
