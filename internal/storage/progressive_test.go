package storage

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"stwave/internal/core"
	"stwave/internal/grid"
)

// progressiveContainer writes one progressive and one legacy window to a
// fresh container and opens it for reading.
func progressiveContainer(t *testing.T, d grid.Dims, slices int) *ContainerReader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.stw")
	opts := core.DefaultOptions()
	opts.WindowSize = slices
	opts.Ratio = 8
	opts.Progressive = true
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	pcw, err := core.Compress(context.Background(), comp, testWindow(d, slices), core.Copy)
	if err != nil {
		t.Fatal(err)
	}
	lopts := opts
	lopts.Progressive = false
	lcomp, err := core.New(lopts)
	if err != nil {
		t.Fatal(err)
	}
	lcw, err := core.Compress(context.Background(), lcomp, testWindow(d, slices), core.Copy)
	if err != nil {
		t.Fatal(err)
	}
	w, err := CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(pcw); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(lcw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestReadWindowLevels: a partial container read must decode identically
// to an in-memory partial decode of the fully-read window, while reading
// strictly fewer bytes for coarse levels.
func TestReadWindowLevels(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	r := progressiveContainer(t, d, 6)

	full, err := r.ReadWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	total, err := r.WindowSizeBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for k := 0; k <= full.SpatialLevels; k++ {
		cw, bytesRead, err := r.ReadWindowLevelsCtx(context.Background(), 0, k)
		if err != nil {
			t.Fatalf("level %d: %v", k, err)
		}
		if k < full.SpatialLevels && bytesRead >= total {
			t.Errorf("level %d read %d of %d bytes — no partial-read saving", k, bytesRead, total)
		}
		want, err := core.Reconstruct[float64](ctx, full, core.Query{MaxLevel: k, Slice: core.All})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Reconstruct[float64](ctx, cw, core.Query{MaxLevel: k, Slice: core.All})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Slices) != len(want.Slices) {
			t.Fatalf("level %d: %d slices, want %d", k, len(got.Slices), len(want.Slices))
		}
		for i := range got.Slices {
			for j, v := range got.Slices[i].Data {
				if math.Float64bits(v) != math.Float64bits(want.Slices[i].Data[j]) {
					t.Fatalf("level %d slice %d sample %d: partial container read differs from in-memory partial decode", k, i, j)
				}
			}
		}
	}
	// Level 0 must be a large saving, not a token one: the approximation
	// cube is 1/8^levels of the grid.
	_, preview, err := r.ReadWindowLevelsCtx(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if preview*2 >= total {
		t.Errorf("level-0 preview read %d of %d bytes — expected well under half", preview, total)
	}
}

// TestReadWindowLevelsLegacyFallback: legacy windows fail typed so
// callers can fall back to ReadWindow.
func TestReadWindowLevelsLegacyFallback(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	r := progressiveContainer(t, d, 4)
	if _, _, err := r.ReadWindowLevelsCtx(context.Background(), 1, 0); !errors.Is(err, core.ErrNotProgressive) {
		t.Fatalf("legacy window: got %v, want ErrNotProgressive", err)
	}
	if _, _, _, err := r.WindowLevelTable(1); !errors.Is(err, core.ErrNotProgressive) {
		t.Fatalf("legacy window table: got %v, want ErrNotProgressive", err)
	}
	if _, _, err := r.ReadWindowLevelsCtx(context.Background(), 0, 99); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if _, _, err := r.ReadWindowLevelsCtx(context.Background(), -1, 0); err == nil {
		t.Fatal("out-of-range window accepted")
	}
}

// TestWindowLevelTableAccounting: the table must map levels to byte
// ranges that exactly tile the payload, and WindowSection must expose
// the same byte count the index records.
func TestWindowLevelTableAccounting(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	r := progressiveContainer(t, d, 5)
	wi, table, payloadStart, err := r.WindowLevelTable(0)
	if err != nil {
		t.Fatal(err)
	}
	if !wi.Progressive || wi.SpatialLevels < 1 {
		t.Fatalf("window info %+v not progressive", wi)
	}
	if len(table.Extents) != wi.SpatialLevels+1 {
		t.Fatalf("%d extents for %d levels", len(table.Extents), wi.SpatialLevels)
	}
	total, err := r.WindowSizeBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := payloadStart + table.PrefixBytes(len(table.Extents)-1); got != total {
		t.Fatalf("level ranges cover %d bytes, window is %d", got, total)
	}
	sec, err := r.WindowSection(0)
	if err != nil {
		t.Fatal(err)
	}
	if sec.Size() != total {
		t.Fatalf("section size %d, index length %d", sec.Size(), total)
	}
	// The section's bytes must re-parse as the same window.
	cw, err := core.ReadCompressedWindow(sec)
	if err != nil {
		t.Fatalf("re-parsing window section: %v", err)
	}
	if !cw.Progressive() || cw.SpatialLevels != wi.SpatialLevels {
		t.Fatal("window section did not round-trip the progressive window")
	}
}

// TestScanReportsProgressive: the fsck scan labels progressive frames so
// reports distinguish windows that can serve a coarse prefix.
func TestScanReportsProgressive(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	path := filepath.Join(t.TempDir(), "scan.stw")
	opts := core.DefaultOptions()
	opts.WindowSize = 4
	opts.Progressive = true
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := core.Compress(context.Background(), comp, testWindow(d, 4), core.Copy)
	if err != nil {
		t.Fatal(err)
	}
	w, err := CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(cw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ScanContainer(f, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Frames) != 1 {
		t.Fatalf("%d frames", len(rep.Frames))
	}
	fr := rep.Frames[0]
	if !fr.Progressive || fr.Levels != cw.SpatialLevels {
		t.Fatalf("frame %+v does not report progressive layout (want levels %d)", fr, cw.SpatialLevels)
	}
}
