package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/storage"
)

// gapSlice fills the same deterministic pattern buildContainer uses.
func gapSlice(d grid.Dims, ts int) *grid.Field3D {
	f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
	for i := range f.Data {
		f.Data[i] = math.Sin(float64(i)*0.1 + float64(ts)*0.2)
	}
	return f
}

// buildGapContainer writes a container whose timeline is laid out by
// layout: 'w' entries are 4-slice compressed windows, 'g' entries 4-slice
// shed-gap markers, in order, covering consecutive global time indices.
func buildGapContainer(t testing.TB, d grid.Dims, layout string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gaps.stw")
	opts := core.DefaultOptions()
	opts.WindowSize = 4
	opts.Ratio = 8
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	slice := 0
	for _, kind := range layout {
		switch kind {
		case 'w':
			win := grid.NewWindow(d)
			for i := 0; i < 4; i++ {
				if err := win.Append(gapSlice(d, slice), float64(slice)); err != nil {
					t.Fatal(err)
				}
				slice++
			}
			cw, err := core.Compress(context.Background(), comp, win, core.Copy)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append(cw); err != nil {
				t.Fatal(err)
			}
		case 'g':
			g := core.GapMarker{Slices: 4, T0: float64(slice), T1: float64(slice + 3), Reason: core.GapShed}
			if _, err := w.AppendGap(g); err != nil {
				t.Fatal(err)
			}
			slice += 4
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMountWithGaps: gap entries mount without Degraded mode, keep the
// timeline aligned, answer their span with 410 Gone, and are counted as
// gaps — never as corruption.
func TestMountWithGaps(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	path := buildGapContainer(t, d, "wgw")
	s := New(DefaultConfig()) // Degraded NOT set: gaps are first-class
	if err := s.Mount("test", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	// Slices on either side of the gap serve normally.
	for _, tt := range []int{0, 3, 8, 11} {
		resp, _ := get(t, ts.URL+"/v1/test/slice?t="+strconv.Itoa(tt))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("t=%d: status %d, want 200", tt, resp.StatusCode)
		}
	}
	// The gap's span answers 410 Gone — the data was shed, not lost track of.
	for _, tt := range []int{4, 7} {
		resp, _ := get(t, ts.URL+"/v1/test/slice?t="+strconv.Itoa(tt))
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("t=%d: status %d, want 410", tt, resp.StatusCode)
		}
	}
	// Timeline alignment: slice 8 (first slice after the gap) must carry
	// its own physical time, not the gap's.
	resp, body := get(t, ts.URL+"/v1/test/slice?t=8&format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json slice: status %d: %s", resp.StatusCode, body)
	}
	var js struct {
		Time float64 `json:"time"`
	}
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.Time != 8 {
		t.Fatalf("slice after gap reports time %g, want 8 (timeline shifted)", js.Time)
	}

	// Gaps are not corruption: health stays ok, corrupt_windows stays 0.
	if n := s.Metrics().CorruptWindows.Load(); n != 0 {
		t.Fatalf("corrupt_windows = %d after mounting gaps, want 0", n)
	}
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" {
		t.Fatalf("healthz status %q, want ok (gaps are not damage)", hz.Status)
	}

	// /v1/datasets reports the gap count and the full (gap-inclusive)
	// slice span.
	_, body = get(t, ts.URL+"/v1/datasets")
	var ds []struct {
		Windows int    `json:"windows"`
		Slices  int    `json:"slices"`
		Gaps    int    `json:"gap_windows"`
		Corrupt int    `json:"corrupt_windows"`
		Codec   string `json:"codec"`
	}
	if err := json.Unmarshal(body, &ds); err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Windows != 3 || ds[0].Slices != 12 || ds[0].Gaps != 1 || ds[0].Corrupt != 0 {
		t.Fatalf("datasets = %+v, want 3 entries / 12 slices / 1 gap / 0 corrupt", ds)
	}
	if ds[0].Codec != "sparse" {
		t.Fatalf("codec = %q; the gap entry must not contribute a codec name", ds[0].Codec)
	}
}

// TestMountGapFirst: a container that opens with a gap still mounts — the
// reference geometry comes from the first real window, and the gap's span
// precedes it in the timeline.
func TestMountGapFirst(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	path := buildGapContainer(t, d, "gw")
	s := New(DefaultConfig())
	if err := s.Mount("test", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	resp, _ := get(t, ts.URL+"/v1/test/slice?t=0")
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("t=0 status %d, want 410", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/test/slice?t=4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("t=4 status %d, want 200", resp.StatusCode)
	}
}

// TestMountGapsDegraded: Degraded mode must not try to checksum-verify
// gap entries nor report them as corrupt.
func TestMountGapsDegraded(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	path := buildGapContainer(t, d, "wgw")
	cfg := DefaultConfig()
	cfg.Degraded = true
	s := New(cfg)
	if err := s.Mount("test", path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if n := s.Metrics().CorruptWindows.Load(); n != 0 {
		t.Fatalf("degraded mount counted %d gaps as corrupt", n)
	}
	if m := s.mounts["test"]; m.gaps != 1 || m.slices != 12 {
		t.Fatalf("mount has %d gaps / %d slices, want 1 / 12", m.gaps, m.slices)
	}
}

// TestMountAllGaps: a container of nothing but gaps has no reference
// geometry and must refuse to mount with a clear error.
func TestMountAllGaps(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	path := buildGapContainer(t, d, "gg")
	s := New(DefaultConfig())
	if err := s.Mount("test", path); err == nil {
		t.Fatal("all-gap container mounted; want no-readable-windows error")
	}
}
