package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"stwave/internal/codec"
	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/ingest"
	"stwave/internal/num"
	"stwave/internal/storage"
)

// buildContainer writes a container of numSlices slices in windows of
// windowSize and returns its path.
func buildContainer(t testing.TB, d grid.Dims, numSlices, windowSize int) string {
	t.Helper()
	return buildContainerCodec(t, d, numSlices, windowSize, nil)
}

// buildContainerCodec is buildContainer with an explicit coefficient
// backend (nil means the default sparse codec).
func buildContainerCodec(t testing.TB, d grid.Dims, numSlices, windowSize int, cdc codec.Codec) string {
	t.Helper()
	opts := core.DefaultOptions()
	opts.WindowSize = windowSize
	opts.Ratio = 8
	opts.Codec = cdc
	return writeContainer(t, d, numSlices, opts, func(ts int) float64 { return float64(ts) })
}

// writeContainer compresses numSlices slices of a smooth field with opts,
// slice ts at simulation time at(ts), and returns the container's path.
// The samples and the pipeline are at opts.Precision.
func writeContainer(t testing.TB, d grid.Dims, numSlices int, opts core.Options, at func(int) float64) string {
	t.Helper()
	if opts.Precision == core.Float32 {
		return writeContainerOf[float32](t, d, numSlices, opts, at)
	}
	return writeContainerOf[float64](t, d, numSlices, opts, at)
}

func writeContainerOf[F num.Float](t testing.TB, d grid.Dims, numSlices int, opts core.Options, at func(int) float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.stw")
	cw, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	series := grid.NewWindowOf[F](d)
	for ts := 0; ts < numSlices; ts++ {
		f := grid.NewField3DOf[F](d.Nx, d.Ny, d.Nz)
		for i := range f.Data {
			f.Data[i] = F(math.Sin(float64(i)*0.1 + float64(ts)*0.2))
		}
		if err := series.Append(f, at(ts)); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := ingest.NewEngineOf[F](ingest.Config{Opts: opts}, d, cw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ingest.NewWindowSourceOf(series), numSlices); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func newTestServer(t testing.TB, cfg Config, d grid.Dims, numSlices, windowSize int) (*Server, *httptest.Server) {
	t.Helper()
	path := buildContainer(t, d, numSlices, windowSize)
	s := New(cfg)
	if err := s.Mount("test", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func get(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestSliceEndpointMatchesDecompression(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	s, ts := newTestServer(t, DefaultConfig(), d, 10, 5)
	_ = s

	resp, body := get(t, ts.URL+"/v1/test/slice?t=7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-STW-Dims"); got != "8x8x8" {
		t.Errorf("X-STW-Dims = %q", got)
	}
	if len(body) != d.Len()*4 {
		t.Fatalf("body %d bytes, want %d", len(body), d.Len()*4)
	}

	// Ground truth: decompress window 1 directly; t=7 is its slice 2.
	r, err := storage.OpenContainer(buildContainerPathFromServer(s))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cw, err := r.ReadWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	win, err := core.Decompress(cw)
	if err != nil {
		t.Fatal(err)
	}
	want := win.Slices[2]
	for i := range want.Data {
		got := math.Float32frombits(binary.LittleEndian.Uint32(body[i*4:]))
		if got != float32(want.Data[i]) {
			t.Fatalf("sample %d: served %g, decompressed %g", i, got, want.Data[i])
		}
	}

	// Second fetch must be a cache hit.
	resp2, _ := get(t, ts.URL+"/v1/test/slice?t=7")
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second fetch X-Cache = %q, want hit", got)
	}
}

// buildContainerPathFromServer digs the mounted path back out for ground
// truthing.
func buildContainerPathFromServer(s *Server) string {
	for _, m := range s.mounts {
		return m.path
	}
	return ""
}

func TestCropPreviewRenderEndpoints(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	_, ts := newTestServer(t, DefaultConfig(), d, 5, 5)

	resp, body := get(t, ts.URL+"/v1/test/crop?t=2&x0=4&y0=4&z0=4&nx=8&ny=8&nz=8")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("crop status %d: %s", resp.StatusCode, body)
	}
	if len(body) != 8*8*8*4 {
		t.Errorf("crop body %d bytes, want %d", len(body), 8*8*8*4)
	}
	if got := resp.Header.Get("X-STW-Dims"); got != "8x8x8" {
		t.Errorf("crop X-STW-Dims = %q", got)
	}

	resp, body = get(t, ts.URL+"/v1/test/preview?t=2&levels=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("preview status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-STW-Dims"); got != "8x8x8" {
		t.Errorf("preview X-STW-Dims = %q", got)
	}

	resp, body = get(t, ts.URL+"/v1/test/render?t=2&kind=slice&format=pgm")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render status %d: %s", resp.StatusCode, body)
	}
	if len(body) < 2 || body[0] != 'P' || body[1] != '5' {
		t.Errorf("render pgm does not start with P5: %q", body[:min(8, len(body))])
	}

	resp, body = get(t, ts.URL+"/v1/test/render?t=2&kind=mip&axis=y&format=ppm")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mip status %d: %s", resp.StatusCode, body)
	}
	if len(body) < 2 || body[0] != 'P' || body[1] != '6' {
		t.Errorf("render ppm does not start with P6: %q", body[:min(8, len(body))])
	}

	resp, body = get(t, ts.URL+"/v1/test/slice?t=1&format=json")
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

func TestControlEndpoints(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	_, ts := newTestServer(t, DefaultConfig(), d, 10, 5)

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status   string `json:"status"`
		Datasets int    `json:"datasets"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Datasets != 1 {
		t.Errorf("healthz = %+v", health)
	}

	resp, body = get(t, ts.URL+"/v1/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("datasets status %d", resp.StatusCode)
	}
	var list []datasetInfo
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "test" || list[0].Slices != 10 || list[0].Windows != 2 {
		t.Errorf("datasets = %+v", list)
	}

	// Generate one request, then verify /metrics reflects it.
	get(t, ts.URL+"/v1/test/slice?t=0")
	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests < 1 || snap.Decompressions < 1 || snap.BytesServed < int64(d.Len()*4) {
		t.Errorf("metrics = %+v", snap)
	}
	if snap.Cache.Windows < 1 || snap.Cache.UsedBytes <= 0 {
		t.Errorf("cache stats = %+v", snap.Cache)
	}
	if snap.Decompress.Count < 1 {
		t.Errorf("latency histogram empty: %+v", snap.Decompress)
	}
}

func TestErrorStatuses(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	_, ts := newTestServer(t, DefaultConfig(), d, 10, 5)

	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/nosuch/slice?t=0", http.StatusNotFound},
		{"/v1/test/slice?t=999", http.StatusNotFound},
		{"/v1/test/slice?t=-1", http.StatusNotFound},
		{"/v1/test/slice?t=abc", http.StatusBadRequest},
		{"/v1/test/slice?t=0&format=xml", http.StatusBadRequest},
		{"/v1/test/crop?t=0&x0=0&y0=0&z0=0&nx=99&ny=1&nz=1", http.StatusBadRequest},
		{"/v1/test/crop?t=0", http.StatusBadRequest},
		{"/v1/test/crop?t=0&x0=1&y0=0&z0=0&nx=9223372036854775807&ny=1&nz=1", http.StatusBadRequest},
		{"/v1/test/crop?t=0&x0=0&y0=1&z0=0&nx=1&ny=9223372036854775807&nz=1", http.StatusBadRequest},
		{"/v1/test/crop?t=0&x0=0&y0=0&z0=1&nx=1&ny=1&nz=9223372036854775807", http.StatusBadRequest},
		{"/v1/test/preview?t=0&levels=99", http.StatusBadRequest},
		{"/v1/test/slice?t=3&levels=-1", http.StatusBadRequest},
		{"/v1/test/slice?t=3&levels=-2", http.StatusBadRequest},
		{"/v1/test/slice?t=3&levels=-100", http.StatusBadRequest},
		{"/v1/test/render?t=0&kind=volume", http.StatusBadRequest},
	} {
		resp, _ := get(t, ts.URL+tc.url)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}
}

func TestSingleflightOneDecompressionForConcurrentRequests(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	s, ts := newTestServer(t, DefaultConfig(), d, 10, 10)

	// N concurrent requests for different slices of the same (uncached)
	// window: exactly one decompression may happen, whether a request
	// coalesced onto the in-flight decompression or arrived late and hit
	// the cache.
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/v1/test/slice?t=%d", ts.URL, i%10))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.metrics.Decompressions.Load(); got != 1 {
		t.Errorf("Decompressions = %d, want exactly 1", got)
	}
	if got := s.metrics.CacheHits.Load() + s.metrics.Coalesced.Load(); got < n-1 {
		t.Errorf("hits+coalesced = %d, want >= %d", got, n-1)
	}
}

// TestConcurrentHammer drives >= 64 concurrent requests across >= 4
// windows and all endpoints; run under -race via `make check`.
func TestConcurrentHammer(t *testing.T) {
	d := grid.Dims{Nx: 12, Ny: 12, Nz: 12}
	cfg := DefaultConfig()
	// Budget of two windows forces concurrent eviction alongside hits.
	cfg.CacheBytes = 2 * int64(d.Len()) * 5 * 8
	s, ts := newTestServer(t, cfg, d, 20, 5) // 4 windows x 5 slices

	paths := []string{
		"/v1/test/slice?t=%d",
		"/v1/test/slice?t=%d&format=json",
		"/v1/test/crop?t=%d&x0=2&y0=2&z0=2&nx=6&ny=6&nz=6",
		"/v1/test/preview?t=%d&levels=1",
		"/v1/test/render?t=%d&kind=mip",
		"/v1/test/render?t=%d&kind=slice&format=ppm",
	}
	const n = 96
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := ts.URL + fmt.Sprintf(paths[i%len(paths)], i%20)
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d", url, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.metrics.Requests.Load(); got != n {
		t.Errorf("Requests = %d, want %d", got, n)
	}
	if s.metrics.Errors.Load() != 0 {
		t.Errorf("Errors = %d", s.metrics.Errors.Load())
	}
}

func TestUncacheableWindowUsesSliceDecode(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	cfg := DefaultConfig()
	cfg.CacheBytes = 0 // nothing ever fits: every request single-slice decodes
	s, ts := newTestServer(t, cfg, d, 10, 5)

	resp, body := get(t, ts.URL+"/v1/test/slice?t=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "uncached" {
		t.Errorf("X-Cache = %q, want uncached", got)
	}
	if s.metrics.SliceDecodes.Load() != 1 || s.metrics.Decompressions.Load() != 0 {
		t.Errorf("SliceDecodes = %d, Decompressions = %d",
			s.metrics.SliceDecodes.Load(), s.metrics.Decompressions.Load())
	}
	if s.cache.Stats().Windows != 0 {
		t.Errorf("cache unexpectedly holds %d windows", s.cache.Stats().Windows)
	}
}

// TestSliceTimeIndependentOfCacheBudget: X-STW-Time is the slice's
// stored time, and the payload the same bytes, whether the slice comes
// from a cached window or the uncacheable one-slice decode.
func TestSliceTimeIndependentOfCacheBudget(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	opts := core.DefaultOptions()
	opts.WindowSize = 5
	opts.Ratio = 8
	path := writeContainer(t, d, 10, opts, func(ts int) float64 { return 100 + 0.5*float64(ts) })
	var bodies [][]byte
	for _, tc := range []struct {
		budget int64
		state  cacheState
	}{{DefaultConfig().CacheBytes, stateMiss}, {0, stateUncached}} {
		cfg := DefaultConfig()
		cfg.CacheBytes = tc.budget
		s := New(cfg)
		if err := s.Mount("test", path); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		resp, body := get(t, ts.URL+"/v1/test/slice?t=7")
		ts.Close()
		s.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("budget %d: status %d: %s", tc.budget, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != string(tc.state) {
			t.Errorf("budget %d: X-Cache = %q, want %q", tc.budget, got, tc.state)
		}
		if got := resp.Header.Get("X-STW-Time"); got != "103.5" {
			t.Errorf("budget %d: X-STW-Time = %q, want 103.5", tc.budget, got)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("cached and uncacheable paths served different bytes")
	}
}

// TestRequestTimeout holds the only decompression slot, so a slice miss
// waits in acquireSem until its deadline passes and must answer 504; once
// the slot is free the same request succeeds.
func TestRequestTimeout(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	cfg := DefaultConfig()
	cfg.MaxDecompress = 1
	cfg.RequestTimeout = 50 * time.Millisecond
	s, ts := newTestServer(t, cfg, d, 5, 5)
	baseline := runtime.NumGoroutine()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	get := func() (int, int) {
		t.Helper()
		resp, err := client.Get(ts.URL + "/v1/test/slice?t=0")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, len(body)
	}

	s.sem <- struct{}{}
	if got, _ := get(); got != http.StatusGatewayTimeout {
		t.Errorf("with the slot held: status %d, want %d", got, http.StatusGatewayTimeout)
	}
	// The abandoned flight is cancelled; wait for it to leave the group so
	// the next request starts its own decode instead of joining it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.flights.mu.Lock()
		n := len(s.flights.m)
		s.flights.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed-out flight never finished")
		}
	}
	<-s.sem
	if got, n := get(); got != http.StatusOK || n != d.Len()*4 {
		t.Errorf("with the slot free: status %d with %d bytes, want %d with %d", got, n, http.StatusOK, d.Len()*4)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the requests, %d after", baseline, runtime.NumGoroutine())
		}
	}
}

func TestMountValidation(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	path := buildContainer(t, d, 5, 5)
	s := New(DefaultConfig())
	defer s.Close()
	if err := s.Mount("a", path); err != nil {
		t.Fatal(err)
	}
	if err := s.Mount("a", path); err == nil {
		t.Error("duplicate mount name must fail")
	}
	if err := s.Mount("", path); err == nil {
		t.Error("empty mount name must fail")
	}
	if err := s.Mount("b", filepath.Join(t.TempDir(), "missing.stw")); err == nil {
		t.Error("missing container must fail")
	}
}

// corruptWindowPayload flips one bit in the middle of window wi's
// payload in the container at path (v3 record-framed layout).
func corruptWindowPayload(t testing.TB, path string, wi int) {
	t.Helper()
	flipInWindow(t, path, wi, -1)
}

// corruptWindowHeader flips the first byte of window wi's payload — the
// serialized window magic — so even the 40-byte header scan fails.
func corruptWindowHeader(t testing.TB, path string, wi int) {
	t.Helper()
	flipInWindow(t, path, wi, 0)
}

func flipInWindow(t testing.TB, path string, wi int, at int64) {
	t.Helper()
	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(0)
	for j := 0; j < wi; j++ {
		n, err := r.WindowSizeBytes(j)
		if err != nil {
			t.Fatal(err)
		}
		off += core.RecordHeaderSize + n
	}
	ln, err := r.WindowSizeBytes(wi)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if at < 0 {
		at = ln / 2
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off+core.RecordHeaderSize+at] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedMount: a container with one CRC-corrupt window mounts in
// degraded mode; its time range answers 410 Gone, every other window
// serves, and the damage shows in /healthz, /metrics, and /v1/datasets.
func TestDegradedMount(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	path := buildContainer(t, d, 12, 4) // windows 0,1,2 of 4 slices
	corruptWindowPayload(t, path, 1)

	cfg := DefaultConfig()
	cfg.Degraded = true
	s := New(cfg)
	if err := s.Mount("test", path); err != nil {
		t.Fatalf("degraded mount: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	// Mount-time verification already found the damage.
	if got := s.Metrics().CorruptWindows.Load(); got != 1 {
		t.Errorf("corrupt_windows after mount = %d, want 1", got)
	}

	// The corrupt window's whole time range is 410 Gone — repeatedly, and
	// without double-counting the metric.
	for _, tt := range []int{4, 5, 6, 7, 5} {
		resp, body := get(t, fmt.Sprintf("%s/v1/test/slice?t=%d", ts.URL, tt))
		if resp.StatusCode != http.StatusGone {
			t.Errorf("t=%d: status %d (%s), want 410", tt, resp.StatusCode, body)
		}
	}
	if got := s.Metrics().CorruptWindows.Load(); got != 1 {
		t.Errorf("corrupt_windows after requests = %d, want 1", got)
	}

	// Every slice in the intact windows still serves.
	for _, tt := range []int{0, 1, 2, 3, 8, 9, 10, 11} {
		resp, body := get(t, fmt.Sprintf("%s/v1/test/slice?t=%d", ts.URL, tt))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("t=%d: status %d (%s), want 200", tt, resp.StatusCode, body)
		}
	}

	// /healthz reports degraded with a per-dataset breakdown.
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status           string         `json:"status"`
		CorruptWindows   int            `json:"corrupt_windows"`
		CorruptByDataset map[string]int `json:"corrupt_by_dataset"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.CorruptWindows != 1 || health.CorruptByDataset["test"] != 1 {
		t.Errorf("healthz = %+v", health)
	}

	// /metrics exposes the counter; /v1/datasets flags the dataset.
	_, body = get(t, ts.URL+"/metrics")
	var snap struct {
		CorruptWindows int64 `json:"corrupt_windows"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.CorruptWindows != 1 {
		t.Errorf("metrics corrupt_windows = %d", snap.CorruptWindows)
	}
	_, body = get(t, ts.URL+"/v1/datasets")
	var infos []struct {
		Name    string `json:"name"`
		Slices  int    `json:"slices"`
		Corrupt int    `json:"corrupt_windows"`
	}
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Corrupt != 1 || infos[0].Slices != 12 {
		t.Errorf("datasets = %+v", infos)
	}
}

// TestNonDegradedDiscoversCorruptionAtRead: without Degraded, payload
// corruption is invisible at mount (headers are intact) but the first
// read answers 410 and flips /healthz to degraded.
func TestNonDegradedDiscoversCorruptionAtRead(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	path := buildContainer(t, d, 8, 4)
	corruptWindowPayload(t, path, 1)

	s := New(DefaultConfig())
	if err := s.Mount("test", path); err != nil {
		t.Fatalf("mount: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	if got := s.Metrics().CorruptWindows.Load(); got != 0 {
		t.Errorf("corrupt_windows before any read = %d", got)
	}
	_, body := get(t, ts.URL+"/healthz")
	if !bytes.Contains(body, []byte(`"status":"ok"`)) && !bytes.Contains(body, []byte(`"status": "ok"`)) {
		t.Errorf("healthz before read: %s", body)
	}

	for i := 0; i < 2; i++ { // second hit takes the isBad fast path
		resp, _ := get(t, ts.URL+"/v1/test/slice?t=6")
		if resp.StatusCode != http.StatusGone {
			t.Errorf("read %d: status %d, want 410", i, resp.StatusCode)
		}
	}
	if got := s.Metrics().CorruptWindows.Load(); got != 1 {
		t.Errorf("corrupt_windows after read = %d, want 1", got)
	}
	resp, _ := get(t, ts.URL+"/v1/test/slice?t=0")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("intact window: status %d", resp.StatusCode)
	}
}

// TestDegradedMountHeaderDamage: a window whose serialized header is
// unreadable keeps its span in the timeline in degraded mode — charged
// at the reference window's slice count — so every later window's global
// time index is unchanged; its own span answers 410 Gone. Without
// Degraded the mount fails outright.
func TestDegradedMountHeaderDamage(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	path := buildContainer(t, d, 8, 4)
	corruptWindowHeader(t, path, 0)

	if err := New(DefaultConfig()).Mount("test", path); err == nil {
		t.Fatal("non-degraded mount of header-damaged container must fail")
	}

	cfg := DefaultConfig()
	cfg.Degraded = true
	s := New(cfg)
	if err := s.Mount("test", path); err != nil {
		t.Fatalf("degraded mount: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	// Window 0's span stays in the timeline (assumed 4 slices, like the
	// reference window): the dataset still spans 8 slices with 1 corrupt.
	_, body := get(t, ts.URL+"/v1/datasets")
	var infos []struct {
		Slices  int `json:"slices"`
		Corrupt int `json:"corrupt_windows"`
	}
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Slices != 8 || infos[0].Corrupt != 1 {
		t.Errorf("datasets = %+v", infos)
	}
	// The damaged span answers 410 Gone; it must NOT silently serve
	// window 1's data shifted into window 0's time range.
	for tt := 0; tt < 4; tt++ {
		resp, _ := get(t, fmt.Sprintf("%s/v1/test/slice?t=%d", ts.URL, tt))
		if resp.StatusCode != http.StatusGone {
			t.Errorf("t=%d: status %d, want 410", tt, resp.StatusCode)
		}
	}
	// Window 1's slices keep their original global indices 4..7.
	for tt := 4; tt < 8; tt++ {
		resp, _ := get(t, fmt.Sprintf("%s/v1/test/slice?t=%d", ts.URL, tt))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("t=%d: status %d, want 200", tt, resp.StatusCode)
		}
	}
	resp, _ := get(t, ts.URL+"/v1/test/slice?t=8")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("past timeline: status %d, want 404", resp.StatusCode)
	}
}

// TestDegradedMountEntropyCodec: the degraded-mount contract holds for
// entropy-coded containers exactly as for sparse ones — a corrupt entropy
// payload answers 410 Gone, intact entropy windows serve, and the dataset
// listing names the codec.
func TestDegradedMountEntropyCodec(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	path := buildContainerCodec(t, d, 12, 4, codec.Entropy())
	corruptWindowPayload(t, path, 1)

	cfg := DefaultConfig()
	cfg.Degraded = true
	s := New(cfg)
	if err := s.Mount("test", path); err != nil {
		t.Fatalf("degraded mount: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	for _, tt := range []int{4, 5, 6, 7} {
		resp, body := get(t, fmt.Sprintf("%s/v1/test/slice?t=%d", ts.URL, tt))
		if resp.StatusCode != http.StatusGone {
			t.Errorf("t=%d: status %d (%s), want 410", tt, resp.StatusCode, body)
		}
	}
	for _, tt := range []int{0, 3, 8, 11} {
		resp, body := get(t, fmt.Sprintf("%s/v1/test/slice?t=%d", ts.URL, tt))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("t=%d: status %d (%s), want 200", tt, resp.StatusCode, body)
		}
	}

	resp, body := get(t, ts.URL+"/v1/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("datasets status %d", resp.StatusCode)
	}
	var infos []struct {
		Codec   string `json:"codec"`
		Corrupt int    `json:"corrupt_windows"`
	}
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Codec != "entropy" || infos[0].Corrupt != 1 {
		t.Errorf("datasets = %+v, want codec entropy with 1 corrupt window", infos)
	}
}
