package server

import (
	"stwave/internal/obs"
)

// Metrics holds the server's counters, backed by a per-Server
// obs.Registry so /metrics and /debug/vars read the same instruments.
// The registry is per-Server rather than process-wide so concurrently
// constructed servers (tests, embedders) never see each other's traffic;
// pipeline-layer metrics (transform, storage, core) land in obs.Default()
// and are surfaced separately. All fields are safe for concurrent update.
type Metrics struct {
	reg *obs.Registry

	Requests       *obs.Counter // data requests accepted (excludes /healthz, /metrics)
	Errors         *obs.Counter // requests answered with a non-2xx status
	CacheHits      *obs.Counter // cacheable request served from the decompressed-window cache
	CacheMisses    *obs.Counter // cacheable request whose window had to be decompressed
	Coalesced      *obs.Counter // requests that piggybacked on another request's decompression
	Decompressions *obs.Counter // whole-window decompressions actually executed, at any depth
	SliceDecodes   *obs.Counter // one-slice decodes at any depth, for windows the cache cannot admit
	BytesServed    *obs.Counter // response payload bytes written
	CorruptWindows *obs.Counter // windows known corrupt across all mounts (found at mount scan or read time)
	// PartialDecodes counts level-bounded decodes of progressive windows,
	// whole-window or one-slice: reads and reconstructions of only a
	// coarse byte prefix.
	PartialDecodes *obs.Counter
	// ProgressiveBytesSaved accumulates the payload bytes partial reads
	// did NOT fetch (full window size minus prefix read) — the observable
	// I/O saving of the level-major layout.
	ProgressiveBytesSaved *obs.Counter

	// DecompressLatency is the end-to-end read+decompress latency in
	// seconds, covering both full-window and single-slice paths.
	DecompressLatency *obs.Histogram
}

// newMetrics builds the server's instruments in a fresh registry, under
// the "server." name prefix the /debug/vars endpoint exposes.
func newMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		reg:                   reg,
		Requests:              reg.Counter("server.requests_total"),
		Errors:                reg.Counter("server.errors_total"),
		CacheHits:             reg.Counter("server.cache_hits_total"),
		CacheMisses:           reg.Counter("server.cache_misses_total"),
		Coalesced:             reg.Counter("server.coalesced_total"),
		Decompressions:        reg.Counter("server.decompressions_total"),
		SliceDecodes:          reg.Counter("server.slice_decodes_total"),
		BytesServed:           reg.Counter("server.bytes_served_total"),
		CorruptWindows:        reg.Counter("server.corrupt_windows"),
		PartialDecodes:        reg.Counter("server.partial_decodes_total"),
		ProgressiveBytesSaved: reg.Counter("server.progressive_bytes_saved_total"),
		DecompressLatency:     reg.Histogram("server.decompress_seconds"),
	}
}

// Registry exposes the server's metrics registry (for /debug/vars and
// embedders that want to merge it into their own exposition).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// MetricsSnapshot is the JSON document served at /metrics. The named
// fields are the server's own counters (stable since the first release);
// Pipeline carries the process-wide registry — transform stage timings,
// storage latencies, coder throughputs — keyed by metric name.
type MetricsSnapshot struct {
	Requests       int64                 `json:"requests"`
	Errors         int64                 `json:"errors"`
	CacheHits      int64                 `json:"cache_hits"`
	CacheMisses    int64                 `json:"cache_misses"`
	Coalesced      int64                 `json:"coalesced"`
	Decompressions int64                 `json:"decompressions"`
	SliceDecodes   int64                 `json:"slice_decodes"`
	BytesServed    int64                 `json:"bytes_served"`
	CorruptWindows int64                 `json:"corrupt_windows"`
	PartialDecodes int64                 `json:"partial_decodes"`
	BytesSaved     int64                 `json:"progressive_bytes_saved"`
	Decompress     obs.HistogramSnapshot `json:"decompress_latency"`
	Cache          CacheStats            `json:"cache"`
	Pipeline       obs.Snapshot          `json:"pipeline"`
}

// Snapshot captures all counters at one instant (per-counter atomicity;
// the set is not a consistent cut, which is fine for monitoring). It also
// refreshes the derived server.cache_hit_ratio gauge.
func (m *Metrics) Snapshot(cache CacheStats) MetricsSnapshot {
	hits, misses := m.CacheHits.Load(), m.CacheMisses.Load()
	if hits+misses > 0 {
		m.reg.Gauge("server.cache_hit_ratio").Set(float64(hits) / float64(hits+misses))
	}
	return MetricsSnapshot{
		Requests:       m.Requests.Load(),
		Errors:         m.Errors.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		Coalesced:      m.Coalesced.Load(),
		Decompressions: m.Decompressions.Load(),
		SliceDecodes:   m.SliceDecodes.Load(),
		BytesServed:    m.BytesServed.Load(),
		CorruptWindows: m.CorruptWindows.Load(),
		PartialDecodes: m.PartialDecodes.Load(),
		BytesSaved:     m.ProgressiveBytesSaved.Load(),
		Decompress:     m.DecompressLatency.Snapshot(),
		Cache:          cache,
	}
}
