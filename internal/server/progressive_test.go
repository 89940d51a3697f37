package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/transform"
)

// buildProgressiveContainer writes a level-major (v4) container.
func buildProgressiveContainer(t testing.TB, d grid.Dims, numSlices, windowSize int) string {
	t.Helper()
	opts := core.DefaultOptions()
	opts.WindowSize = windowSize
	opts.Ratio = 8
	opts.Progressive = true
	return writeContainer(t, d, numSlices, opts, func(ts int) float64 { return float64(ts) })
}

func newProgressiveServer(t testing.TB, cfg Config, d grid.Dims, numSlices, windowSize int) (*Server, *httptest.Server) {
	t.Helper()
	path := buildProgressiveContainer(t, d, numSlices, windowSize)
	s := New(cfg)
	if err := s.Mount("prog", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// decodeRawFloats parses a raw-format response body.
func decodeRawFloats(t *testing.T, body []byte) []float32 {
	t.Helper()
	if len(body)%4 != 0 {
		t.Fatalf("raw body %d bytes not a float32 multiple", len(body))
	}
	out := make([]float32, len(body)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[i*4:]))
	}
	return out
}

// TestSliceLevelsParam: levels=K serves the coarse reconstruction at the
// pyramid's dims, reads fewer bytes than the full window, and accounts
// the saving; levels=SpatialLevels matches the full-quality slice.
func TestSliceLevelsParam(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	s, ts := newProgressiveServer(t, DefaultConfig(), d, 6, 6)
	L := s.mounts["prog"].ref.SpatialLevels
	if L < 1 {
		t.Fatalf("container has %d spatial levels; need >= 1", L)
	}

	resp, body := get(t, ts.URL+"/v1/prog/slice?t=2&levels=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("levels=0: status %d: %s", resp.StatusCode, body)
	}
	coarse := transform.CoarseDims(d, L)
	if got := resp.Header.Get("X-STW-Dims"); got != coarse.String() {
		t.Errorf("levels=0 dims %q, want %q", got, coarse)
	}
	if len(body) != coarse.Len()*4 {
		t.Errorf("levels=0 body %d bytes, want %d", len(body), coarse.Len()*4)
	}
	if got := s.metrics.PartialDecodes.Load(); got != 1 {
		t.Errorf("partial_decodes = %d, want 1", got)
	}
	if saved := s.metrics.ProgressiveBytesSaved.Load(); saved <= 0 {
		t.Errorf("progressive_bytes_saved = %d, want > 0", saved)
	}

	// Full-depth levels param must match the plain slice response exactly.
	respFull, bodyFull := get(t, ts.URL+fmt.Sprintf("/v1/prog/slice?t=2&levels=%d", L))
	if respFull.StatusCode != http.StatusOK {
		t.Fatalf("levels=%d: status %d: %s", L, respFull.StatusCode, bodyFull)
	}
	respPlain, bodyPlain := get(t, ts.URL+"/v1/prog/slice?t=2")
	if respPlain.StatusCode != http.StatusOK {
		t.Fatalf("plain slice: status %d", respPlain.StatusCode)
	}
	if !bytes.Equal(bodyFull, bodyPlain) {
		t.Error("levels=SpatialLevels response differs from full-quality slice")
	}

	// Out-of-range levels fail as a client error.
	respBad, _ := get(t, ts.URL+fmt.Sprintf("/v1/prog/slice?t=2&levels=%d", L+1))
	if respBad.StatusCode != http.StatusBadRequest {
		t.Errorf("levels=%d: status %d, want 400", L+1, respBad.StatusCode)
	}
}

// TestSliceLevelsCoarseAccuracy: the coarse reconstruction must agree
// with the downsampled full reconstruction — same signal, same scaling —
// to well under the compression error budget.
func TestSliceLevelsCoarseAccuracy(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	s, ts := newProgressiveServer(t, DefaultConfig(), d, 6, 6)
	L := s.mounts["prog"].ref.SpatialLevels
	K := L - 1

	_, coarseBody := get(t, ts.URL+fmt.Sprintf("/v1/prog/slice?t=3&levels=%d", K))
	gotCoarse := decodeRawFloats(t, coarseBody)

	_, fullBody := get(t, ts.URL+"/v1/prog/slice?t=3")
	full := decodeRawFloats(t, fullBody)
	f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
	for i, v := range full {
		f.Data[i] = float64(v)
	}
	want, err := transform.CoarseApproximation(f, s.mounts["prog"].ref.SpatialKernel, L-K, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotCoarse) != len(want.Data) {
		t.Fatalf("coarse response %d samples, want %d", len(gotCoarse), len(want.Data))
	}
	var maxDiff float64
	for i, v := range gotCoarse {
		if diff := math.Abs(float64(v) - want.Data[i]); diff > maxDiff {
			maxDiff = diff
		}
	}
	// Partial decode drops detail the downsample also discards; the two
	// differ only by float ordering and the dropped-coefficient error.
	if maxDiff > 0.05 {
		t.Errorf("coarse reconstruction deviates %g from downsampled full reconstruction", maxDiff)
	}
}

// TestPreviewUsesPartialDecode is the bugfix regression: preview on a
// progressive container must take the partial-read path instead of
// decompressing the full window and throwing the detail away.
func TestPreviewUsesPartialDecode(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	s, ts := newProgressiveServer(t, DefaultConfig(), d, 6, 6)
	L := s.mounts["prog"].ref.SpatialLevels

	resp, body := get(t, ts.URL+"/v1/prog/preview?t=1&levels=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	coarse := transform.CoarseDims(d, 1)
	if got := resp.Header.Get("X-STW-Dims"); got != coarse.String() {
		t.Errorf("preview dims %q, want %q", got, coarse)
	}
	if got := s.metrics.PartialDecodes.Load(); got != 1 {
		t.Errorf("preview did not take the partial-decode path (partial_decodes = %d)", got)
	}
	if got := s.metrics.Decompressions.Load(); got != 1 {
		t.Errorf("decompressions = %d, want 1 (the partial one)", got)
	}
	// A preview deeper than the transform supports keeps answering 400
	// through the downsample fallback, exactly as before the level-major
	// layout existed.
	respDeep, _ := get(t, ts.URL+fmt.Sprintf("/v1/prog/preview?t=1&levels=%d", L+9))
	if respDeep.StatusCode != http.StatusBadRequest {
		t.Errorf("too-deep preview: status %d, want 400", respDeep.StatusCode)
	}
}

// TestWindowLevelsEndpoint: the level table JSON must tile the window
// resource, and Range requests against /window/{w} must serve exactly
// the advertised byte ranges.
func TestWindowLevelsEndpoint(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	_, ts := newProgressiveServer(t, DefaultConfig(), d, 6, 6)

	resp, body := get(t, ts.URL+"/v1/prog/window/0/levels")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var table struct {
		Window        int    `json:"window"`
		Progressive   bool   `json:"progressive"`
		SpatialLevels int    `json:"spatial_levels"`
		PayloadStart  int64  `json:"payload_start"`
		SizeBytes     int64  `json:"size_bytes"`
		Dims          string `json:"dims"`
		Levels        []struct {
			Level  int    `json:"level"`
			Offset int64  `json:"offset"`
			Length int64  `json:"length"`
			CRC    uint32 `json:"crc32"`
		} `json:"levels"`
	}
	if err := json.Unmarshal(body, &table); err != nil {
		t.Fatal(err)
	}
	if !table.Progressive || len(table.Levels) != table.SpatialLevels+1 {
		t.Fatalf("level table %+v not progressive or wrong group count", table)
	}

	// Full window fetch: size must match the table's accounting.
	respW, whole := get(t, ts.URL+"/v1/prog/window/0")
	if respW.StatusCode != http.StatusOK {
		t.Fatalf("window fetch: status %d", respW.StatusCode)
	}
	if int64(len(whole)) != table.SizeBytes {
		t.Fatalf("window is %d bytes, table says %d", len(whole), table.SizeBytes)
	}
	if respW.Header.Get("X-STW-Progressive") != "true" {
		t.Error("X-STW-Progressive header missing")
	}
	// The bytes must re-parse as a progressive window.
	if _, err := core.ReadCompressedWindowLevels(bytes.NewReader(whole), 0); err != nil {
		t.Fatalf("served window bytes do not parse: %v", err)
	}

	// Range request for the header + approximation group: the coarse
	// prefix a refining client fetches first.
	lvl0 := table.Levels[0]
	req, err := http.NewRequest("GET", ts.URL+"/v1/prog/window/0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=0-%d", lvl0.Offset+lvl0.Length-1))
	rr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	part, err := io.ReadAll(rr.Body)
	rr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rr.StatusCode != http.StatusPartialContent {
		t.Fatalf("range request: status %d, want 206", rr.StatusCode)
	}
	if int64(len(part)) != lvl0.Offset+lvl0.Length {
		t.Fatalf("range response %d bytes, want %d", len(part), lvl0.Offset+lvl0.Length)
	}
	if !bytes.Equal(part, whole[:len(part)]) {
		t.Fatal("range response bytes differ from the window prefix")
	}
	// That prefix is a complete coarse window.
	cw, err := core.ReadCompressedWindowLevels(bytes.NewReader(part), 0)
	if err != nil {
		t.Fatalf("level-0 prefix does not parse: %v", err)
	}
	if _, err := core.Reconstruct[float64](context.Background(), cw, core.Query{MaxLevel: 0, Slice: core.All}); err != nil {
		t.Fatalf("level-0 prefix does not decode: %v", err)
	}
}

// TestWindowEndpointErrors: bad indices and non-numeric segments answer
// client errors, not panics or 500s.
func TestWindowEndpointErrors(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	_, ts := newProgressiveServer(t, DefaultConfig(), d, 4, 4)
	for url, want := range map[string]int{
		"/v1/prog/window/99":        http.StatusNotFound,
		"/v1/prog/window/-1":        http.StatusNotFound,
		"/v1/prog/window/x":         http.StatusBadRequest,
		"/v1/prog/window/99/levels": http.StatusNotFound,
		"/v1/nope/window/0":         http.StatusNotFound,
	} {
		resp, _ := get(t, ts.URL+url)
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", url, resp.StatusCode, want)
		}
	}
}

// TestSliceLevelsLegacyFallback: levels=K on a legacy container answers
// the same coarse dims through full decode + downsample — no partial
// reads, no errors.
func TestSliceLevelsLegacyFallback(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	s, ts := newTestServer(t, DefaultConfig(), d, 6, 6)
	L := s.mounts["test"].ref.SpatialLevels

	resp, body := get(t, ts.URL+"/v1/test/slice?t=2&levels=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	coarse := transform.CoarseDims(d, L)
	if got := resp.Header.Get("X-STW-Dims"); got != coarse.String() {
		t.Errorf("dims %q, want %q", got, coarse)
	}
	if got := s.metrics.PartialDecodes.Load(); got != 0 {
		t.Errorf("legacy container recorded %d partial decodes", got)
	}
	// The levels endpoint probes capability without erroring.
	respT, bodyT := get(t, ts.URL+"/v1/test/window/0/levels")
	if respT.StatusCode != http.StatusOK {
		t.Fatalf("levels probe: status %d", respT.StatusCode)
	}
	var probe struct {
		Progressive bool `json:"progressive"`
	}
	if err := json.Unmarshal(bodyT, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Progressive {
		t.Error("legacy window reported progressive")
	}
}

// TestLevelCacheKeys: different depths of the same window are distinct
// cache entries — a second request at the same depth hits, a request at
// another depth misses.
func TestLevelCacheKeys(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	s, ts := newProgressiveServer(t, DefaultConfig(), d, 6, 6)

	get(t, ts.URL+"/v1/prog/slice?t=0&levels=0")
	resp, _ := get(t, ts.URL+"/v1/prog/slice?t=1&levels=0")
	if got := resp.Header.Get("X-Cache"); got != string(stateHit) {
		t.Errorf("second levels=0 request: X-Cache %q, want hit", got)
	}
	resp, _ = get(t, ts.URL+"/v1/prog/slice?t=0")
	if got := resp.Header.Get("X-Cache"); got != string(stateMiss) {
		t.Errorf("full-depth request after coarse: X-Cache %q, want miss", got)
	}
	if got := s.metrics.PartialDecodes.Load(); got != 1 {
		t.Errorf("partial_decodes = %d, want 1 (second coarse request was cached)", got)
	}
}
