package server

import (
	"encoding/binary"
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

// buildContainer32 writes a single-precision container of numSlices slices
// in windows of windowSize and returns its path.
func buildContainer32(t testing.TB, d grid.Dims, numSlices, windowSize int, progressive bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data32.stw")
	opts := core.DefaultOptions()
	opts.WindowSize = windowSize
	opts.Ratio = 8
	opts.Precision = core.Float32
	opts.Progressive = progressive
	cw, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := core.NewWriterOf[float32](opts, d, func(w *core.CompressedWindow) error {
		_, err := cw.Append(w)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for ts := 0; ts < numSlices; ts++ {
		f := grid.NewField3D32(d.Nx, d.Ny, d.Nz)
		for i := range f.Data {
			f.Data[i] = float32(math.Sin(float64(i)*0.1 + float64(ts)*0.2))
		}
		if err := writer.WriteSlice(f, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func newTestServer32(t testing.TB, cfg Config, d grid.Dims, numSlices, windowSize int, progressive bool) (*Server, *httptest.Server, string) {
	t.Helper()
	path := buildContainer32(t, d, numSlices, windowSize, progressive)
	s := New(cfg)
	if err := s.Mount("t32", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, path
}

// TestFloat32SliceServedNatively checks the served raw bytes are exactly
// the float32 samples of the decompressed window — no widen-then-narrow
// round trip can change them, but this pins the end-to-end wire format.
func TestFloat32SliceServedNatively(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	_, ts, path := newTestServer32(t, DefaultConfig(), d, 10, 5, false)

	resp, body := get(t, ts.URL+"/v1/t32/slice?t=7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-STW-Dims"); got != "8x8x8" {
		t.Errorf("X-STW-Dims = %q", got)
	}
	if len(body) != d.Len()*4 {
		t.Fatalf("body %d bytes, want %d", len(body), d.Len()*4)
	}

	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cw, err := r.ReadWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	if cw.Precision != core.Float32 {
		t.Fatalf("window precision = %v, want Float32", cw.Precision)
	}
	win, err := core.Decompress32(cw)
	if err != nil {
		t.Fatal(err)
	}
	want := win.Slices[2]
	for i := range want.Data {
		got := math.Float32frombits(binary.LittleEndian.Uint32(body[i*4:]))
		if got != want.Data[i] {
			t.Fatalf("sample %d: served %g, decompressed %g", i, got, want.Data[i])
		}
	}

	resp2, _ := get(t, ts.URL+"/v1/t32/slice?t=7")
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second fetch X-Cache = %q, want hit", got)
	}
}

// TestFloat32CropPreviewRenderEndpoints exercises every data endpoint
// against a float32 container: the handlers must crop, coarsen, and
// render at native precision without error.
func TestFloat32CropPreviewRenderEndpoints(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	_, ts, _ := newTestServer32(t, DefaultConfig(), d, 5, 5, false)

	resp, body := get(t, ts.URL+"/v1/t32/crop?t=2&x0=4&y0=4&z0=4&nx=8&ny=8&nz=8")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("crop status %d: %s", resp.StatusCode, body)
	}
	if len(body) != 8*8*8*4 {
		t.Errorf("crop body %d bytes, want %d", len(body), 8*8*8*4)
	}

	resp, body = get(t, ts.URL+"/v1/t32/preview?t=2&levels=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("preview status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-STW-Dims"); got != "8x8x8" {
		t.Errorf("preview X-STW-Dims = %q", got)
	}

	resp, body = get(t, ts.URL+"/v1/t32/render?t=2&kind=slice&format=pgm")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render status %d: %s", resp.StatusCode, body)
	}
	if len(body) < 2 || body[0] != 'P' || body[1] != '5' {
		t.Errorf("render pgm does not start with P5")
	}

	resp, body = get(t, ts.URL+"/v1/t32/render?t=2&kind=mip&axis=y&format=ppm")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mip status %d: %s", resp.StatusCode, body)
	}
	if len(body) < 2 || body[0] != 'P' || body[1] != '6' {
		t.Errorf("render ppm does not start with P6")
	}

	resp, body = get(t, ts.URL+"/v1/t32/slice?t=1&format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		Dims string    `json:"dims"`
		Data []float64 `json:"data"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	if doc.Dims != "16x16x16" || len(doc.Data) != d.Len() {
		t.Errorf("json dims %q, %d samples", doc.Dims, len(doc.Data))
	}
}

// TestFloat32ProgressiveLevelsEndpoint hits the level-bounded read path on
// a progressive float32 container and checks the coarse dims contract.
func TestFloat32ProgressiveLevelsEndpoint(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	_, ts, _ := newTestServer32(t, DefaultConfig(), d, 5, 5, true)

	// levels=0 serves the coarsest band: dims shrink by the full spatial
	// decomposition depth.
	resp, body := get(t, ts.URL+"/v1/t32/slice?t=2&levels=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("levels=0 status %d: %s", resp.StatusCode, body)
	}
	coarse := resp.Header.Get("X-STW-Dims")
	if coarse == "16x16x16" {
		t.Errorf("levels=0 served full-resolution dims %q", coarse)
	}
	if want := len(body); want%4 != 0 {
		t.Errorf("levels=0 body %d bytes not a float32 multiple", want)
	}

	// levels == SpatialLevels reconstructs the full field. Read the depth
	// from the levels endpoint rather than hard-coding it.
	resp, body = get(t, ts.URL+"/v1/t32/window/0/levels")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("levels table status %d: %s", resp.StatusCode, body)
	}
	var tbl struct {
		SpatialLevels int `json:"spatial_levels"`
	}
	if err := json.Unmarshal(body, &tbl); err != nil {
		t.Fatalf("levels table decode: %v", err)
	}
	resp, body = get(t, ts.URL+"/v1/t32/slice?t=2&levels="+strconv.Itoa(tbl.SpatialLevels))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("levels=max status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-STW-Dims"); got != "16x16x16" {
		t.Errorf("levels=max X-STW-Dims = %q, want full resolution", got)
	}
	if len(body) != d.Len()*4 {
		t.Errorf("levels=max body %d bytes, want %d", len(body), d.Len()*4)
	}
}

// TestFloat32UncacheableSliceDecode forces the per-slice decode path (cache
// budget below one window) and checks it serves float32 natively.
func TestFloat32UncacheableSliceDecode(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	cfg := DefaultConfig()
	cfg.CacheBytes = 64 // far below one window
	_, ts, _ := newTestServer32(t, cfg, d, 10, 5, false)

	resp, body := get(t, ts.URL+"/v1/t32/slice?t=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != string(stateUncached) {
		t.Errorf("X-Cache = %q, want %q", got, stateUncached)
	}
	if len(body) != d.Len()*4 {
		t.Errorf("body %d bytes, want %d", len(body), d.Len()*4)
	}
}

// TestDatasetPrecisionCensus mounts one container per precision and checks
// the /v1/datasets listing reports each dataset's sample precision.
func TestDatasetPrecisionCensus(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	p64 := buildContainer(t, d, 5, 5)
	p32 := buildContainer32(t, d, 5, 5, false)
	s := New(DefaultConfig())
	if err := s.Mount("d64", p64); err != nil {
		t.Fatal(err)
	}
	if err := s.Mount("d32", p32); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	resp, body := get(t, ts.URL+"/v1/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var infos []datasetInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	byName := map[string]datasetInfo{}
	for _, di := range infos {
		byName[di.Name] = di
	}
	if got := byName["d64"].Precision; got != "f64" {
		t.Errorf("d64 precision = %q, want f64", got)
	}
	if got := byName["d32"].Precision; got != "f32" {
		t.Errorf("d32 precision = %q, want f32", got)
	}
}

// TestFloat32CacheChargesHalf pins the cache accounting: a float32 window
// must cost 4 bytes per sample, half its float64 twin.
func TestFloat32CacheChargesHalf(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	w32 := grid.NewWindow32(d)
	w64 := grid.NewWindow(d)
	for i := 0; i < 2; i++ {
		if err := w32.Append(grid.NewField3D32(d.Nx, d.Ny, d.Nz), float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := w64.Append(grid.NewField3D(d.Nx, d.Ny, d.Nz), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	b32, b64 := newWindow(w32).bytes(), newWindow(w64).bytes()
	if b32*2 != b64 {
		t.Errorf("cache32 bytes = %d, cache64 bytes = %d, want exactly half", b32, b64)
	}
}
