package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/obs"
)

// writerBytes streams src through a WriterOf and returns each emitted
// window serialized.
func writerBytes[F num.Float](t *testing.T, opts Options, src *grid.WindowOf[F]) [][]byte {
	t.Helper()
	var out [][]byte
	wr, err := NewWriterOf[F](opts, src.Dims, func(cw *CompressedWindow) error {
		out = append(out, serialized(t, cw))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range src.Slices {
		if err := wr.WriteSlice(s, src.Times[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	return out
}

func serialized(t *testing.T, cw *CompressedWindow) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// copyBytes compresses each window-sized run of src's slices with Copy
// input, the reference the in-place writer must reproduce.
func copyBytes[F num.Float](t *testing.T, opts Options, src *grid.WindowOf[F], size int) [][]byte {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for lo := 0; lo < src.Len(); lo += size {
		hi := min(lo+size, src.Len())
		win := &grid.WindowOf[F]{Dims: src.Dims, Slices: src.Slices[lo:hi], Times: src.Times[lo:hi]}
		cw, err := Compress(context.Background(), c, win, Copy)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, serialized(t, cw))
	}
	return out
}

func checkWriterMatchesCopy[F num.Float](t *testing.T, opts Options, src *grid.WindowOf[F], size int) {
	t.Helper()
	got, want := writerBytes(t, opts, src), copyBytes(t, opts, src, size)
	if len(got) != len(want) {
		t.Fatalf("writer emitted %d windows, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("window %d: writer bytes differ from Compress(Copy)", i)
		}
	}
}

// TestWriterMatchesCompressCopy: the in-place writer's windows are
// byte-identical to Compress(Copy) on the same slices, at both precisions
// and in both modes. The grid and window are large enough for one
// spatial and one temporal level, so the transform really runs.
func TestWriterMatchesCompressCopy(t *testing.T) {
	d := grid.Dims{Nx: 20, Ny: 18, Nz: 16}
	opts := DefaultOptions()
	opts.WindowSize = 10
	opts.Ratio = 16
	opts.Workers = 2
	checkWriterMatchesCopy(t, opts, coherentWindow(d, 25, 0.3), 10)
	checkWriterMatchesCopy(t, opts, coherentWindow32(d, 25, 0.6), 10)
	opts.Mode = Spatial3D
	checkWriterMatchesCopy(t, opts, coherentWindow(d, 3, 0.3), 1)
	checkWriterMatchesCopy(t, opts, coherentWindow32(d, 3, 0.6), 1)
}

// TestWriter3DLeavesCallerSlice: a 3D writer compresses each slice the
// moment it arrives, in place, yet the caller's buffer is unchanged.
func TestWriter3DLeavesCallerSlice(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	src := coherentWindow(d, 2, 0)
	opts := DefaultOptions()
	opts.Mode = Spatial3D
	count := 0
	wr, err := NewWriterOf[float64](opts, d, func(*CompressedWindow) error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range src.Slices {
		before := append([]float64(nil), s.Data...)
		if err := wr.WriteSlice(s, src.Times[i]); err != nil {
			t.Fatal(err)
		}
		for j := range before {
			if s.Data[j] != before[j] {
				t.Fatalf("slice %d sample %d changed by WriteSlice", i, j)
			}
		}
	}
	if count != 2 {
		t.Fatalf("emitted %d windows for 2 slices in 3D mode", count)
	}
}

// TestWriterCopiesEachSliceOnce: a 4D writer without MaxErr compresses
// the window it owns in place, so no working copy is made.
func TestWriterCopiesEachSliceOnce(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	opts := DefaultOptions()
	opts.WindowSize = 4
	clones := obs.Default().Counter("core.window_clone_bytes_total")
	before := clones.Load()
	if n := len(writerBytes(t, opts, coherentWindow(d, 8, 0))); n != 2 {
		t.Fatalf("emitted %d windows, want 2", n)
	}
	if got := clones.Load() - before; got != 0 {
		t.Fatalf("writer cloned %d window bytes, want 0", got)
	}
}

func TestWriterSinkErrorPropagates(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	src := coherentWindow(d, 4, 0)
	opts := DefaultOptions()
	opts.WindowSize = 2
	boom := errors.New("sink exploded")
	wr, err := NewWriterOf[float64](opts, d, func(*CompressedWindow) error { return boom })
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.WriteSlice(src.Slices[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := wr.WriteSlice(src.Slices[1], 1); !errors.Is(err, boom) {
		t.Fatalf("WriteSlice filling a window = %v, want the sink error", err)
	}
}
