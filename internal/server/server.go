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
// exhaustion. Every slice, crop, preview and render request takes one
// path (Server.answer): a window too large to ever fit the cache budget
// at the requested depth is answered by a one-slice core.Reconstruct
// query at that depth instead, which skips the spatial inverse for every
// slice except the requested one and never touches the cache.
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
	"stwave/internal/transform"
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

// cacheState labels how a request's data was obtained, surfaced in the
// X-Cache response header.
type cacheState string

const (
	stateHit       cacheState = "hit"       // served from the window cache
	stateMiss      cacheState = "miss"      // this request ran the decompression
	stateCoalesced cacheState = "coalesced" // waited on another request's decompression
	stateUncached  cacheState = "uncached"  // window exceeds cache budget at that depth; one-slice decode
)

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

// answer is the one query path behind every slice, crop, preview and
// render request: the field at global time index t, coarsened by skip
// wavelet levels (0 is full resolution). keep >= 0 asks instead for the
// reconstruction from only the keep+1 coarsest level groups, which is
// skip = SpatialLevels-keep; core.All leaves skip as given.
//
// The stored layout gives as much of that depth as it can: a progressive
// window reads a level prefix down to its approximation band, any other
// window decodes at full resolution. If the cache admits the whole window
// at that depth, the whole window is reconstructed, cached, coalesced,
// and counted as one hit or one miss; otherwise only the one slice is
// reconstructed, with no cache lookup. Levels the layout could not give
// are coarsened with the window's own kernel. The returned view may be
// shared with other requests: treat it as read-only.
func (s *Server) answer(ctx context.Context, m *mount, t, keep, skip int) (view, float64, cacheState, error) {
	wi, local, err := m.servable(t)
	if err != nil {
		return nil, 0, stateMiss, err
	}
	info := m.windows[wi].info
	if keep != core.All {
		if keep > info.SpatialLevels {
			return nil, 0, stateMiss, badRequest("levels must be in [0, %d], got %d", info.SpatialLevels, keep)
		}
		skip = info.SpatialLevels - keep
	}
	if top := transform.Levels3D(info.SpatialKernel, info.Dims); skip > top {
		return nil, 0, stateMiss, badRequest("cannot coarsen %v by %d levels: the maximum is %d", info.Dims, skip, top)
	}
	q := core.Query{MaxLevel: core.All, Slice: core.All}
	stored := 0 // levels of skip the stored layout gives
	if info.Progressive && skip > 0 {
		stored = min(skip, info.SpatialLevels)
		q.MaxLevel = info.SpatialLevels - stored
	}
	at := info
	at.Dims = transform.CoarseDims(info.Dims, stored)
	key := windowKey{dataset: m.name, window: wi, levels: q.MaxLevel + 1}

	var w window
	state, ok := stateUncached, false
	if s.cache.Admits(at.RawSizeBytes()) {
		_, spc := obs.Start(ctx, "cache.lookup")
		state = stateMiss
		if w, ok = s.cache.Get(key); ok {
			state = stateHit
		}
		spc.SetAttr("result", string(state))
		spc.End()
	} else {
		// A one-slice result holds the requested slice alone, at index 0.
		q.Slice, local = local, 0
	}
	if !ok {
		flightKey := m.name + "\x00" + strconv.Itoa(wi) + "\x00" + strconv.Itoa(q.MaxLevel) + "\x00" + strconv.Itoa(q.Slice)
		val, coalesced, err := s.flights.Do(ctx, flightKey, func(workCtx context.Context) (any, error) {
			if q.Slice != core.All {
				return s.decode(workCtx, m, wi, q)
			}
			// Re-check under the flight: a previous flight may have
			// populated the cache between our Get and Do. peek, not Get —
			// this request already counted its miss.
			if w, ok := s.cache.peek(key); ok {
				return w, nil
			}
			w, err := s.decode(workCtx, m, wi, q)
			if err == nil {
				s.cache.Put(key, w)
			}
			return w, err
		})
		if err != nil {
			return nil, 0, state, err
		}
		if coalesced {
			s.metrics.Coalesced.Add(1)
			if state == stateMiss {
				state = stateCoalesced
			}
		}
		w = val.(window)
	}
	v, tv := w.slice(local)
	if rest := skip - stored; rest > 0 {
		if v, err = v.coarse(info.SpatialKernel, rest, 0); err != nil {
			return nil, 0, state, badRequest("%v", err)
		}
	}
	return v, tv, state, nil
}

// decode reads window wi and reconstructs the part q names, holding one
// decompression slot while it runs (a queued request still honors
// cancellation). It counts a whole-window result as a decompression, a
// one-slice result as a slice decode, and a level-bounded read of either
// as a partial decode.
func (s *Server) decode(ctx context.Context, m *mount, wi int, q core.Query) (window, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()
	start := time.Now()
	var (
		cw        *core.CompressedWindow
		bytesRead int64
		err       error
	)
	if q.MaxLevel == core.All {
		cw, err = m.r.ReadWindowCtx(ctx, wi)
	} else {
		cw, bytesRead, err = m.r.ReadWindowLevelsCtx(ctx, wi, q.MaxLevel)
	}
	if err != nil {
		s.noteCorrupt(m, wi, err)
		return nil, err
	}
	w, err := reconstruct(ctx, cw, q)
	if err != nil {
		return nil, err
	}
	if q.MaxLevel != core.All {
		s.metrics.PartialDecodes.Add(1)
		if total, err := m.r.WindowSizeBytes(wi); err == nil && total > bytesRead {
			s.metrics.ProgressiveBytesSaved.Add(total - bytesRead)
		}
	}
	if q.Slice == core.All {
		s.metrics.Decompressions.Add(1)
	} else {
		s.metrics.SliceDecodes.Add(1)
	}
	s.metrics.DecompressLatency.ObserveSince(start)
	return w, nil
}
