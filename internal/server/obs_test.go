package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"stwave/internal/grid"
	"stwave/internal/obs"
)

// TestCacheAccountingConsistent drives concurrent cacheable requests and
// checks the consolidated accounting invariant: every request counts
// exactly one cache hit or one cache miss — no double counting from the
// flight re-check, no lost counts from coalescing.
func TestCacheAccountingConsistent(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	s, ts := newTestServer(t, DefaultConfig(), d, 20, 5)

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Spread across all 20 slices so multiple windows are in
				// play and hits, misses, and coalesced joins all occur.
				resp, _ := get(t, fmt.Sprintf("%s/v1/test/slice?t=%d", ts.URL, (seed*perWorker+i)%20))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()

	m := s.Metrics()
	requests := m.Requests.Load()
	hits, misses := m.CacheHits.Load(), m.CacheMisses.Load()
	if requests != workers*perWorker {
		t.Fatalf("requests = %d, want %d", requests, workers*perWorker)
	}
	if hits+misses != requests {
		t.Errorf("hits (%d) + misses (%d) = %d, want requests (%d)", hits, misses, hits+misses, requests)
	}
	if m.Errors.Load() != 0 {
		t.Errorf("errors = %d", m.Errors.Load())
	}
}

// TestMetricsExposesPipeline checks that /metrics carries the
// process-wide pipeline registry next to the server's own counters:
// after one cold request, the storage read path and the decompression
// path must both have recorded.
func TestMetricsExposesPipeline(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	_, ts := newTestServer(t, DefaultConfig(), d, 10, 5)

	if resp, _ := get(t, ts.URL+"/v1/test/slice?t=0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("slice status %d", resp.StatusCode)
	}
	_, body := get(t, ts.URL+"/metrics")
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad /metrics JSON: %v", err)
	}
	if snap.Pipeline.Counters["core.decompress_windows_total"] < 1 {
		t.Errorf("pipeline counters = %v, want core.decompress_windows_total >= 1", snap.Pipeline.Counters)
	}
	for _, name := range []string{"storage.read_seconds", "compress.decode_mb_per_s"} {
		if snap.Pipeline.Histograms[name].Count < 1 {
			t.Errorf("pipeline histogram %q absent or empty (names: %v)", name, snap.Pipeline.Names())
		}
	}
}

// TestDebugVarsMergesRegistries checks /debug/vars serves the merged
// server + process-wide registries.
func TestDebugVarsMergesRegistries(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	_, ts := newTestServer(t, DefaultConfig(), d, 10, 5)

	if resp, _ := get(t, ts.URL+"/v1/test/slice?t=0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("slice status %d", resp.StatusCode)
	}
	_, body := get(t, ts.URL+"/debug/vars")
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad /debug/vars JSON: %v", err)
	}
	if snap.Counters["server.requests_total"] < 1 {
		t.Errorf("server.requests_total = %d, want >= 1", snap.Counters["server.requests_total"])
	}
	if snap.Counters["core.decompress_windows_total"] < 1 {
		t.Errorf("core.decompress_windows_total = %d, want >= 1", snap.Counters["core.decompress_windows_total"])
	}
}

// TestRequestTraceSpanTree enables request tracing, issues one cold
// request per container layout (legacy and progressive), and checks each
// recorded span tree covers the whole pipeline: handler -> cache lookup
// -> storage read -> decompress -> decode and inverse transform stages.
func TestRequestTraceSpanTree(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	cfg := DefaultConfig()
	cfg.TraceRequests = true
	_, legacy := newTestServer(t, cfg, d, 10, 5)
	_, prog := newProgressiveServer(t, cfg, d, 10, 5)
	for _, tc := range []struct{ url, dataset string }{{legacy.URL, "test"}, {prog.URL, "prog"}} {
		if resp, _ := get(t, tc.url+"/v1/"+tc.dataset+"/slice?t=0"); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s slice status %d", tc.dataset, resp.StatusCode)
		}
		_, body := get(t, tc.url+"/debug/traces")
		var traces []obs.SpanTree
		if err := json.Unmarshal(body, &traces); err != nil {
			t.Fatalf("bad /debug/traces JSON: %v", err)
		}
		if len(traces) != 1 {
			t.Fatalf("%s: got %d traces, want 1", tc.dataset, len(traces))
		}
		seen := map[string]bool{}
		traces[0].Walk(func(n obs.SpanTree, depth int) { seen[n.Name] = true })
		for _, want := range []string{
			"handler /v1/" + tc.dataset + "/slice",
			"cache.lookup",
			"storage.read_window",
			"core.decompress",
			"core.decode_blocks",
			"xform.inverse_3d",
			"xform.inverse_temporal",
		} {
			if !seen[want] {
				t.Errorf("%s: span %q missing from trace (have %v)", tc.dataset, want, seen)
			}
		}
	}
}

// TestPprofGatedByConfig checks the profiling endpoints are absent by
// default and mounted when Config.Pprof is set.
func TestPprofGatedByConfig(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	_, off := newTestServer(t, DefaultConfig(), d, 4, 4)
	if resp, _ := get(t, off.URL+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status %d, want 404", resp.StatusCode)
	}

	cfg := DefaultConfig()
	cfg.Pprof = true
	_, on := newTestServer(t, cfg, d, 4, 4)
	if resp, _ := get(t, on.URL+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with opt-in: status %d, want 200", resp.StatusCode)
	}
}
