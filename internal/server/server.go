// Package server is the online read path for compressed containers: an
// HTTP service that mounts one or more .stw containers and serves time
// slices, axis-aligned crops, multiresolution previews, and rendered
// quick-look images without the client ever touching wavelet code.
//
// The hot path is engineered around one observation: decompressing a
// window is expensive (tens to hundreds of milliseconds) while copying
// bytes out of a decompressed window is nearly free. So the server keeps a
// byte-budgeted LRU cache of decompressed windows, coalesces concurrent
// requests for the same uncached window into a single decompression
// (flightGroup), and bounds the number of decompressions in flight with a
// semaphore so a cold-cache burst degrades to queueing instead of memory
// exhaustion. Windows too large to ever fit the cache budget fall back to
// a one-slice core.Reconstruct query, which skips the spatial inverse for
// every slice except the requested one.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"stwave/internal/core"
	"stwave/internal/obs"
	"stwave/internal/storage"
)

// Config tunes the server's resource envelope.
type Config struct {
	// CacheBytes bounds the decompressed-window cache (bytes of float64
	// samples). <= 0 disables caching entirely. Rule of thumb: one window
	// costs Nx*Ny*Nz*T*8 bytes; size the budget to hold the working set of
	// windows your clients scrub across.
	CacheBytes int64
	// MaxDecompress bounds concurrent window decompressions. <= 0 means
	// GOMAXPROCS.
	MaxDecompress int
	// RequestTimeout bounds each data request end to end. <= 0 disables.
	RequestTimeout time.Duration
	// Degraded makes mounts tolerate corrupt windows instead of refusing
	// the whole container: every window is checksum-verified at mount,
	// corrupt ones are excluded from serving (requests for them answer
	// 410 Gone) while keeping their span in the timeline so every other
	// window's global time index is unchanged, and the damage is surfaced
	// through /healthz and the corrupt_windows metric. Without it, a
	// mount fails on the first unreadable window header.
	Degraded bool
	// TraceRequests records a span tree for every data request (handler →
	// cache → storage → decode) into a bounded ring served at
	// /debug/traces. Off by default: each traced request allocates a few
	// spans.
	TraceRequests bool
	// Pprof mounts the net/http/pprof profiling endpoints under
	// /debug/pprof/. Off by default: profiles expose internals and cost
	// CPU while running, so production servers opt in explicitly.
	Pprof bool
}

// DefaultConfig returns a sensible laptop-scale envelope: 256 MB of cache,
// one decompression per CPU, 30 s per request.
func DefaultConfig() Config {
	return Config{
		CacheBytes:     256 << 20,
		MaxDecompress:  runtime.GOMAXPROCS(0),
		RequestTimeout: 30 * time.Second,
	}
}

// windowMeta is the per-window index built at mount time from 40-byte
// header reads: enough to map a global time index to (window, local slice)
// and to decide cache admission before decompressing anything.
type windowMeta struct {
	info       core.WindowInfo
	startSlice int
}

// mount is one dataset: a container reader plus its window index. The
// reader is shared by all requests (ReadWindow is ReadAt-based and
// goroutine-safe). bad tracks windows known corrupt — populated by the
// degraded-mount verification scan and grown at read time when a CRC
// failure is first discovered.
type mount struct {
	name    string
	path    string
	r       *storage.ContainerReader
	windows []windowMeta
	slices  int
	gaps    int             // journaled gap entries (windows shed at ingest)
	ref     core.WindowInfo // first readable window header (dims, kernels)

	mu  sync.Mutex
	bad map[int]bool
}

// markBad records window wi as corrupt, reporting whether it was newly
// discovered (so the corrupt_windows metric counts each window once).
func (m *mount) markBad(wi int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bad[wi] {
		return false
	}
	m.bad[wi] = true
	return true
}

// isBad reports whether window wi is known corrupt.
func (m *mount) isBad(wi int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bad[wi]
}

// badCount returns how many of the mount's windows are known corrupt.
func (m *mount) badCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.bad)
}

// codecNames returns the coefficient backends the mount's readable
// windows use — normally one name; mixed containers list all, sorted.
func (m *mount) codecNames() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[string]bool{}
	for i := range m.windows {
		if m.bad[i] || m.windows[i].info.Gap != nil {
			continue
		}
		seen[m.windows[i].info.Codec.String()] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// precisionNames returns the sample precisions the mount's readable
// windows use — normally one of "f64"/"f32"; mixed containers list both,
// sorted, so the census surfaces per-dataset precision at a glance.
func (m *mount) precisionNames() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[string]bool{}
	for i := range m.windows {
		if m.bad[i] || m.windows[i].info.Gap != nil {
			continue
		}
		seen[m.windows[i].info.Precision.String()] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// locate maps a global time index to (window index, slice within window).
func (m *mount) locate(t int) (int, int, error) {
	if t < 0 || t >= m.slices {
		return 0, 0, notFound("time index %d out of range [0,%d)", t, m.slices)
	}
	wi := sort.Search(len(m.windows), func(i int) bool {
		return m.windows[i].startSlice+m.windows[i].info.NumSlices > t
	})
	return wi, t - m.windows[wi].startSlice, nil
}

// Server serves mounted containers over HTTP. Create with New, add
// datasets with Mount/MountReader before serving, then expose Handler().
type Server struct {
	cfg     Config
	mounts  map[string]*mount
	order   []string
	cache   *WindowCache
	flights flightGroup
	sem     chan struct{}
	metrics *Metrics
	traces  *traceRing
}

// New creates an empty server with the given resource envelope.
func New(cfg Config) *Server {
	if cfg.MaxDecompress <= 0 {
		cfg.MaxDecompress = runtime.GOMAXPROCS(0)
	}
	m := newMetrics()
	cache := NewWindowCache(cfg.CacheBytes)
	cache.hits, cache.misses = m.CacheHits, m.CacheMisses
	return &Server{
		cfg:     cfg,
		mounts:  make(map[string]*mount),
		cache:   cache,
		sem:     make(chan struct{}, cfg.MaxDecompress),
		metrics: m,
		traces:  newTraceRing(traceRingSize),
	}
}

// Mount opens the container at path and serves it under the given dataset
// name. Not safe to call concurrently with request handling: mount the
// topology first, then serve.
func (s *Server) Mount(name, path string) error {
	r, err := storage.OpenContainer(path)
	if err != nil {
		return err
	}
	if err := s.MountReader(name, r); err != nil {
		r.Close() //stlint:ignore uncheckederr releasing a just-opened reader on an error path already being reported
		return err
	}
	s.mounts[name].path = path
	return nil
}

// MountReader serves an already-open container under the given dataset
// name. The server takes ownership of the reader (Close closes it).
func (s *Server) MountReader(name string, r *storage.ContainerReader) error {
	if name == "" {
		return fmt.Errorf("server: empty dataset name")
	}
	if _, dup := s.mounts[name]; dup {
		return fmt.Errorf("server: dataset %q already mounted", name)
	}
	if r.NumWindows() == 0 {
		return fmt.Errorf("server: dataset %q has no windows", name)
	}
	m := &mount{name: name, r: r, windows: make([]windowMeta, r.NumWindows()), bad: make(map[int]bool)}
	// First pass: read every window header, so the reference window (the
	// first readable one) is known before the timeline is laid out.
	infos := make([]*core.WindowInfo, r.NumWindows())
	haveRef := false
	for i := 0; i < r.NumWindows(); i++ {
		info, err := r.WindowInfo(i)
		if err != nil {
			if !s.cfg.Degraded {
				return fmt.Errorf("server: scanning %q: %w", name, err)
			}
			m.bad[i] = true
			s.metrics.CorruptWindows.Add(1)
			continue
		}
		infos[i] = &info
		// Gap markers (windows shed under ingest backpressure) are
		// first-class timeline entries but carry no field data, so they can
		// neither anchor the reference geometry nor be served.
		if info.Gap != nil {
			m.gaps++
			continue
		}
		if !haveRef {
			m.ref, haveRef = info, true
		}
	}
	if !haveRef {
		return fmt.Errorf("server: dataset %q has no readable windows", name)
	}
	// Second pass: lay out the timeline. A window whose header is
	// unreadable is charged the reference window's span — windows are
	// uniform in practice (the last may be shorter) — so every later
	// window keeps its global time index; its own span answers 410 Gone
	// like any corrupt window, instead of silently shifting requests onto
	// the wrong physical time step.
	for i := range infos {
		info := m.ref
		if infos[i] != nil {
			info = *infos[i]
			// Gaps have no payload to verify and are not corruption: their
			// NumSlices keeps the timeline aligned, their spans answer 410.
			if s.cfg.Degraded && info.Gap == nil {
				if err := r.VerifyWindow(i); err != nil && m.markBad(i) {
					// Payload corrupt but header intact: keep the window's
					// span in the timeline and answer its slices with 410.
					s.metrics.CorruptWindows.Add(1)
				}
			}
		}
		m.windows[i] = windowMeta{info: info, startSlice: m.slices}
		m.slices += info.NumSlices
	}
	s.mounts[name] = m
	s.order = append(s.order, name)
	return nil
}

// Close closes every mounted container.
func (s *Server) Close() error {
	var first error
	for _, name := range s.order {
		if err := s.mounts[name].r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Metrics exposes the server's counters (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache exposes the window cache (benchmarks flush it to force the cold
// path).
func (s *Server) Cache() *WindowCache { return s.cache }

// acquireSem takes one decompression slot, honoring cancellation while
// queued.
func (s *Server) acquireSem(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// cacheState labels how a request's data was obtained, surfaced in the
// X-Cache response header.
type cacheState string

const (
	stateHit       cacheState = "hit"       // served from the window cache
	stateMiss      cacheState = "miss"      // this request ran the decompression
	stateCoalesced cacheState = "coalesced" // waited on another request's decompression
	stateUncached  cacheState = "uncached"  // window exceeds cache budget; single-slice decode
)

// window returns the decompressed window wi of mount m, consulting the
// cache and coalescing concurrent misses. The returned window is shared:
// callers must not modify it.
func (s *Server) window(ctx context.Context, m *mount, wi int) (window, cacheState, error) {
	return s.windowLevel(ctx, m, wi, core.All)
}

// windowLevel is window generalized to level-bounded decodes of
// progressive windows: maxLevel = core.All decompresses the whole window;
// maxLevel >= 0 reads only the byte prefix covering level groups
// 0..maxLevel and reconstructs at the matching coarse dims. Each depth is
// its own cache entry and its own flight, so a level-0 preview neither
// waits on nor evicts the full reconstruction. Hit/miss accounting lives
// inside cache.Get — the flight's re-check uses the uncounted peek — so
// every call here counts exactly one hit or one miss. Callers pass
// maxLevel >= 0 only for windows whose header says Progressive.
func (s *Server) windowLevel(ctx context.Context, m *mount, wi, maxLevel int) (window, cacheState, error) {
	levels := 0
	if maxLevel >= 0 {
		levels = maxLevel + 1
	}
	key := windowKey{dataset: m.name, window: wi, levels: levels}
	_, spc := obs.Start(ctx, "cache.lookup")
	w, ok := s.cache.Get(key)
	if ok {
		spc.SetAttr("result", "hit")
		spc.End()
		return w, stateHit, nil
	}
	spc.SetAttr("result", "miss")
	spc.End()
	flightKey := "w\x00" + m.name + "\x00" + strconv.Itoa(wi) + "\x00" + strconv.Itoa(levels)
	val, coalesced, err := s.flights.Do(ctx, flightKey, func(workCtx context.Context) (any, error) {
		// Re-check under the flight: a previous flight may have populated
		// the cache between our Get and Do. peek, not Get — this request
		// already counted its miss.
		if w, ok := s.cache.peek(key); ok {
			return w, nil
		}
		if err := s.acquireSem(workCtx); err != nil {
			return nil, err
		}
		defer func() { <-s.sem }()
		start := time.Now()
		var (
			cw        *core.CompressedWindow
			bytesRead int64
			err       error
		)
		if maxLevel >= 0 {
			cw, bytesRead, err = m.r.ReadWindowLevelsCtx(workCtx, wi, maxLevel)
		} else {
			cw, err = m.r.ReadWindowCtx(workCtx, wi)
		}
		if err != nil {
			s.noteCorrupt(m, wi, err)
			return nil, err
		}
		w, err := reconstruct(workCtx, cw, core.Query{MaxLevel: maxLevel, Slice: core.All})
		if err != nil {
			return nil, err
		}
		if maxLevel >= 0 {
			s.metrics.PartialDecodes.Add(1)
			if total, err := m.r.WindowSizeBytes(wi); err == nil && total > bytesRead {
				s.metrics.ProgressiveBytesSaved.Add(total - bytesRead)
			}
		}
		s.metrics.Decompressions.Add(1)
		s.metrics.DecompressLatency.ObserveSince(start)
		s.cache.Put(key, w)
		return w, nil
	})
	if err != nil {
		return nil, stateMiss, err
	}
	state := stateMiss
	if coalesced {
		s.metrics.Coalesced.Add(1)
		state = stateCoalesced
	}
	return val.(window), state, nil
}

// noteCorrupt records a newly discovered corrupt window in the mount and
// the corrupt_windows metric. Reads that fail for other reasons
// (transient I/O, cancellation) are not marked — only checksum failures,
// which are a durable property of the bytes on disk.
func (s *Server) noteCorrupt(m *mount, wi int, err error) {
	if errors.Is(err, storage.ErrCorrupt) && m.markBad(wi) {
		s.metrics.CorruptWindows.Add(1)
	}
}

// servable maps a global time index to (window, local slice), rejecting
// gaps and known-corrupt windows with the status the handlers surface.
func (m *mount) servable(t int) (int, int, error) {
	wi, local, err := m.locate(t)
	if err != nil {
		return 0, 0, err
	}
	info := m.windows[wi].info
	if info.Gap != nil {
		return 0, 0, gone("time index %d falls in a gap: window %d shed at ingest (%s, t=[%g,%g])",
			t, wi, info.Gap.Reason, info.Gap.T0, info.Gap.T1)
	}
	if m.isBad(wi) {
		return 0, 0, gone("time index %d falls in corrupt window %d", t, wi)
	}
	return wi, local, nil
}

// sliceLevel returns the field at global time index t reconstructed from
// only the coarsest maxLevel+1 detail levels, at the matching coarse dims
// (transform.CoarseDims of the grid at depth SpatialLevels-maxLevel).
// Progressive windows take the partial-read path — finer level groups are
// never read from disk or decompressed. Legacy windows fall back to a
// full decode followed by spatial downsampling, so the endpoint contract
// (dims, semantics) is uniform across container generations; only the
// I/O saving is progressive-only.
func (s *Server) sliceLevel(ctx context.Context, m *mount, t, maxLevel int) (view, float64, cacheState, error) {
	wi, local, err := m.servable(t)
	if err != nil {
		return nil, 0, stateMiss, err
	}
	meta := m.windows[wi]
	if maxLevel < 0 || maxLevel > meta.info.SpatialLevels {
		return nil, 0, stateMiss, badRequest("levels must be in [0, %d], got %d", meta.info.SpatialLevels, maxLevel)
	}
	if maxLevel == meta.info.SpatialLevels {
		return s.slice(ctx, m, t)
	}
	if !meta.info.Progressive {
		v, tv, state, err := s.slice(ctx, m, t)
		if err != nil {
			return nil, 0, state, err
		}
		coarse, err := v.coarse(meta.info.SpatialKernel, meta.info.SpatialLevels-maxLevel, 0)
		if err != nil {
			return nil, 0, state, err
		}
		return coarse, tv, state, nil
	}
	w, state, err := s.windowLevel(ctx, m, wi, maxLevel)
	if err != nil {
		return nil, 0, state, err
	}
	v, tv := w.slice(local)
	return v, tv, state, nil
}

// slice returns the field at global time index t of the named dataset. For
// cacheable windows it decompresses (or reuses) the whole window; for
// windows larger than the cache budget it decodes just the one slice. The
// returned field may be shared with other requests: treat as read-only.
func (s *Server) slice(ctx context.Context, m *mount, t int) (view, float64, cacheState, error) {
	wi, local, err := m.servable(t)
	if err != nil {
		return nil, 0, stateMiss, err
	}
	meta := m.windows[wi]
	if s.cache.Admits(meta.info.RawSizeBytes()) {
		w, state, err := s.window(ctx, m, wi)
		if err != nil {
			return nil, 0, state, err
		}
		v, tv := w.slice(local)
		return v, tv, state, nil
	}
	// Uncacheable path: the window can never fit the budget, so skip the
	// full decompression and reconstruct only the requested slice. Still
	// coalesced (per slice) and bounded by the semaphore.
	val, coalesced, err := s.flights.Do(ctx, "s\x00"+m.name+"\x00"+strconv.Itoa(wi)+"\x00"+strconv.Itoa(local), func(workCtx context.Context) (any, error) {
		if err := s.acquireSem(workCtx); err != nil {
			return nil, err
		}
		defer func() { <-s.sem }()
		start := time.Now()
		cw, err := m.r.ReadWindowCtx(workCtx, wi)
		if err != nil {
			s.noteCorrupt(m, wi, err)
			return nil, err
		}
		w, err := reconstruct(workCtx, cw, core.Query{MaxLevel: core.All, Slice: local})
		if err != nil {
			return nil, err
		}
		s.metrics.SliceDecodes.Add(1)
		s.metrics.DecompressLatency.ObserveSince(start)
		return w, nil
	})
	if err != nil {
		return nil, 0, stateUncached, err
	}
	if coalesced {
		s.metrics.Coalesced.Add(1)
	}
	v, tv := val.(window).slice(0)
	return v, tv, stateUncached, nil
}
