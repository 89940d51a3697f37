package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"stwave/internal/obs"
	"stwave/internal/render"
	"stwave/internal/storage"
)

// Handler returns the server's HTTP interface:
//
//	GET /healthz                  liveness + mount count
//	GET /metrics                  counters, latency histogram, cache stats, pipeline metrics
//	GET /debug/vars               merged obs registries (server + process-wide) as JSON
//	GET /debug/traces             recent request span trees (needs Config.TraceRequests)
//	GET /debug/pprof/...          net/http/pprof profiles (needs Config.Pprof)
//	GET /v1/datasets              list mounted datasets
//	GET /v1/{dataset}/slice       one time slice     ?t=12&format=raw|json — add &levels=K
//	                              to reconstruct from only the K+1 coarsest detail
//	                              levels (progressive containers read just that byte
//	                              prefix from disk)
//	GET /v1/{dataset}/crop        subvolume          ?t=&x0=&y0=&z0=&nx=&ny=&nz=&format=raw|json
//	GET /v1/{dataset}/preview     coarse approximation ?t=&levels=2&format=raw|json
//	GET /v1/{dataset}/render      quick-look image   ?t=&kind=slice|mip&z=&axis=x|y|z&format=pgm|ppm
//	GET /v1/{dataset}/window/{w}  raw serialized window bytes; supports HTTP Range,
//	                              so clients holding the level table can fetch
//	                              individual level groups for streamed refinement
//	GET /v1/{dataset}/window/{w}/levels  level-offset table as JSON: the byte range
//	                              and CRC of each detail level group
//
// raw responses are little-endian float32 sample streams (x fastest) with
// the extents in the X-STW-Dims header; every data response carries an
// X-Cache header saying how the window was obtained.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/vars", obs.Handler(s.metrics.Registry(), obs.Default()))
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if s.cfg.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	mux.HandleFunc("GET /v1/{dataset}/slice", s.data(s.handleSlice))
	mux.HandleFunc("GET /v1/{dataset}/crop", s.data(s.handleCrop))
	mux.HandleFunc("GET /v1/{dataset}/preview", s.data(s.handlePreview))
	mux.HandleFunc("GET /v1/{dataset}/render", s.data(s.handleRender))
	mux.HandleFunc("GET /v1/{dataset}/window/{w}", s.data(s.handleWindowBytes))
	mux.HandleFunc("GET /v1/{dataset}/window/{w}/levels", s.data(s.handleWindowLevels))
	return mux
}

// httpError carries a status code through the handler return path.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &httpError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// gone marks data lost to corruption: unlike a 5xx, retrying will not
// bring it back, and unlike a 404 the time index is valid.
func gone(format string, args ...any) error {
	return &httpError{status: http.StatusGone, msg: fmt.Sprintf(format, args...)}
}

// countingWriter tracks payload bytes for the BytesServed counter.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// data wraps a dataset handler with mount lookup, per-request timeout,
// metrics, request tracing, and error-to-status mapping.
func (s *Server) data(h func(http.ResponseWriter, *http.Request, *mount) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Requests.Add(1)
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		var root *obs.Span
		if s.cfg.TraceRequests {
			ctx, root = obs.StartRoot(ctx, "handler "+r.URL.Path)
			root.SetAttr("query", r.URL.RawQuery)
			defer func() {
				root.End()
				if root != nil {
					s.traces.add(root.Tree())
				}
			}()
		}
		m, ok := s.mounts[r.PathValue("dataset")]
		if !ok {
			s.fail(w, notFound("unknown dataset %q", r.PathValue("dataset")))
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		if err := h(cw, r.WithContext(ctx), m); err != nil {
			s.fail(w, err)
			return
		}
		s.metrics.BytesServed.Add(cw.n)
	}
}

// fail maps an error to an HTTP status and counts it.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.metrics.Errors.Add(1)
	var he *httpError
	switch {
	case errors.As(err, &he):
		http.Error(w, he.msg, he.status)
	case errors.Is(err, storage.ErrCorrupt):
		// The bytes on disk fail their checksum; retrying cannot help.
		http.Error(w, err.Error(), http.StatusGone)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "request timed out", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write.
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Degraded, not dead: corrupt windows mean some time indices answer
	// 410, but every intact window still serves. Orchestrators should keep
	// routing traffic and page a human to run stfsck.
	status := "ok"
	var perDataset map[string]int
	if corrupt := s.metrics.CorruptWindows.Load(); corrupt > 0 {
		status = "degraded"
		perDataset = make(map[string]int)
		for _, name := range s.order {
			if n := s.mounts[name].badCount(); n > 0 {
				perDataset[name] = n
			}
		}
	}
	resp := map[string]any{
		"status":          status,
		"datasets":        len(s.mounts),
		"corrupt_windows": s.metrics.CorruptWindows.Load(),
	}
	if perDataset != nil {
		resp["corrupt_by_dataset"] = perDataset
	}
	writeJSON(w, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot(s.cache.Stats())
	// Pipeline metrics (transform stage timings, storage latencies, coder
	// throughputs) accumulate process-wide, not per server.
	snap.Pipeline = obs.Default().Snapshot()
	writeJSON(w, snap)
}

// datasetInfo is one entry of /v1/datasets.
type datasetInfo struct {
	Name      string `json:"name"`
	Windows   int    `json:"windows"`
	Slices    int    `json:"slices"`
	Dims      string `json:"dims"`
	Codec     string `json:"codec"`
	Precision string `json:"precision"`
	Corrupt   int    `json:"corrupt_windows,omitempty"`
	Gaps      int    `json:"gap_windows,omitempty"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	out := make([]datasetInfo, 0, len(s.order))
	for _, name := range s.order {
		m := s.mounts[name]
		out = append(out, datasetInfo{
			Name:      name,
			Windows:   len(m.windows),
			Slices:    m.slices,
			Dims:      m.ref.Dims.String(),
			Codec:     m.codecNames(),
			Precision: m.precisionNames(),
			Corrupt:   m.badCount(),
			Gaps:      m.gaps,
		})
	}
	writeJSON(w, out)
}

func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request, m *mount) error {
	t, err := intParam(r, "t", 0)
	if err != nil {
		return err
	}
	// levels=K bounds the reconstruction to the K+1 coarsest detail
	// levels — the progressive read path. Absent means full quality.
	levels, err := intParam(r, "levels", -1)
	if err != nil {
		return err
	}
	var (
		v     view
		tv    float64
		state cacheState
	)
	if levels >= 0 {
		v, tv, state, err = s.sliceLevel(r.Context(), m, t, levels)
	} else {
		v, tv, state, err = s.slice(r.Context(), m, t)
	}
	if err != nil {
		return err
	}
	return writeField(w, r, v, tv, state)
}

func (s *Server) handleCrop(w http.ResponseWriter, r *http.Request, m *mount) error {
	t, err := intParam(r, "t", 0)
	if err != nil {
		return err
	}
	box := [6]int{}
	for i, name := range []string{"x0", "y0", "z0", "nx", "ny", "nz"} {
		v, err := intParam(r, name, -1)
		if err != nil {
			return err
		}
		if v < 0 {
			return badRequest("crop requires %s", name)
		}
		box[i] = v
	}
	v, tv, state, err := s.slice(r.Context(), m, t)
	if err != nil {
		return err
	}
	sub, err := v.subVolume(box[0], box[1], box[2], box[3], box[4], box[5])
	if err != nil {
		return badRequest("%v", err)
	}
	return writeField(w, r, sub, tv, state)
}

func (s *Server) handlePreview(w http.ResponseWriter, r *http.Request, m *mount) error {
	t, err := intParam(r, "t", 0)
	if err != nil {
		return err
	}
	levels, err := intParam(r, "levels", 1)
	if err != nil {
		return err
	}
	if levels < 1 {
		return badRequest("levels must be >= 1, got %d", levels)
	}
	// A preview downsampled by N levels is the reconstruction from only
	// the SpatialLevels-N coarsest detail levels, so route it through the
	// level-bounded path: on progressive containers that reads a byte
	// prefix instead of decompressing the full window and then throwing
	// the detail away (the pre-v4 behavior), and either way the result is
	// cached at its own (window, depth) key. Previews coarser than the
	// decomposition clamp to the approximation band.
	wi, _, err := m.servable(t)
	if err != nil {
		return err
	}
	if maxLevel := m.windows[wi].info.SpatialLevels - levels; maxLevel >= 0 {
		v, tv, state, err := s.sliceLevel(r.Context(), m, t, maxLevel)
		if err != nil {
			return err
		}
		return writeField(w, r, v, tv, state)
	}
	// Deeper than the stored decomposition: no byte prefix maps to this
	// resolution, so reconstruct the approximation band's worth and keep
	// downsampling with the same spatial kernel the container was
	// compressed with (recorded in every window header).
	v, tv, state, err := s.slice(r.Context(), m, t)
	if err != nil {
		return err
	}
	coarse, err := v.coarse(m.ref.SpatialKernel, levels, 0)
	if err != nil {
		return badRequest("%v", err)
	}
	return writeField(w, r, coarse, tv, state)
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request, m *mount) error {
	t, err := intParam(r, "t", 0)
	if err != nil {
		return err
	}
	v, _, state, err := s.slice(r.Context(), m, t)
	if err != nil {
		return err
	}
	kind := paramOr(r, "kind", "slice")
	var im *render.Image
	switch kind {
	case "slice":
		z, err := intParam(r, "z", v.dims().Nz/2)
		if err != nil {
			return err
		}
		im, err = v.sliceImage(z)
		if err != nil {
			return badRequest("%v", err)
		}
	case "mip":
		var axis render.MIPAxis
		switch paramOr(r, "axis", "z") {
		case "x":
			axis = render.AlongX
		case "y":
			axis = render.AlongY
		case "z":
			axis = render.AlongZ
		default:
			return badRequest("axis must be x, y, or z")
		}
		im, err = v.mipImage(axis)
		if err != nil {
			return badRequest("%v", err)
		}
	default:
		return badRequest("kind must be slice or mip, got %q", kind)
	}
	w.Header().Set("X-Cache", string(state))
	switch format := paramOr(r, "format", "pgm"); format {
	case "pgm":
		w.Header().Set("Content-Type", "image/x-portable-graymap")
		return im.WritePGM(w)
	case "ppm":
		w.Header().Set("Content-Type", "image/x-portable-pixmap")
		return im.WritePPM(w)
	default:
		return badRequest("format must be pgm or ppm, got %q", format)
	}
}

// windowParam parses and bounds the {w} path segment.
func (s *Server) windowParam(r *http.Request, m *mount) (int, error) {
	wi, err := strconv.Atoi(r.PathValue("w"))
	if err != nil {
		return 0, badRequest("window must be an integer, got %q", r.PathValue("w"))
	}
	if wi < 0 || wi >= len(m.windows) {
		return 0, notFound("window %d out of range [0,%d)", wi, len(m.windows))
	}
	if m.windows[wi].info.Gap != nil {
		return 0, gone("window %d is a gap marker (shed at ingest)", wi)
	}
	if m.isBad(wi) {
		return 0, gone("window %d is corrupt", wi)
	}
	return wi, nil
}

// handleWindowBytes serves window w's serialized bytes verbatim, with
// HTTP Range support: a progressive-aware client fetches the level table
// once (see handleWindowLevels), then issues Range requests for exactly
// the level groups it wants, verifying each against the table's CRC —
// streamed refinement without any server-side decode.
func (s *Server) handleWindowBytes(w http.ResponseWriter, r *http.Request, m *mount) error {
	wi, err := s.windowParam(r, m)
	if err != nil {
		return err
	}
	sec, err := m.r.WindowSection(wi)
	if err != nil {
		return err
	}
	info := m.windows[wi].info
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-STW-Progressive", strconv.FormatBool(info.Progressive))
	w.Header().Set("X-STW-Levels", strconv.Itoa(info.SpatialLevels))
	// No modification time: container windows are immutable once written,
	// and a zero time suppresses Last-Modified based caching heuristics.
	http.ServeContent(w, r, "", time.Time{}, sec)
	return nil
}

// levelRange is one entry of the /levels response: the absolute byte
// range of a level group within the /window/{w} resource, plus its CRC.
type levelRange struct {
	Level  int    `json:"level"`
	Offset int64  `json:"offset"`
	Length int64  `json:"length"`
	CRC    uint32 `json:"crc32"`
}

// handleWindowLevels serves window w's level-offset table as JSON. For
// legacy (slice-major) windows it answers progressive:false with no
// level list, so clients can probe capability without error handling.
func (s *Server) handleWindowLevels(w http.ResponseWriter, r *http.Request, m *mount) error {
	wi, err := s.windowParam(r, m)
	if err != nil {
		return err
	}
	info := m.windows[wi].info
	resp := map[string]any{
		"window":         wi,
		"progressive":    info.Progressive,
		"spatial_levels": info.SpatialLevels,
		"num_slices":     info.NumSlices,
		"dims":           info.Dims.String(),
		"codec":          info.Codec.String(),
	}
	if info.Progressive {
		_, table, payloadStart, err := m.r.WindowLevelTable(wi)
		if err != nil {
			s.noteCorrupt(m, wi, err)
			return err
		}
		ranges := make([]levelRange, len(table.Extents))
		off := payloadStart
		for g, ext := range table.Extents {
			ranges[g] = levelRange{Level: g, Offset: off, Length: ext.Length, CRC: ext.CRC}
			off += ext.Length
		}
		resp["payload_start"] = payloadStart
		resp["size_bytes"] = off
		resp["levels"] = ranges
	}
	return writeJSON(w, resp)
}

// writeField emits a field as raw float32 or JSON, tagging extent, time,
// and cache-state headers. The raw wire format is little-endian float32
// regardless of container precision, so float32 views serialize without
// any widen-then-narrow round trip.
func writeField(w http.ResponseWriter, r *http.Request, v view, tv float64, state cacheState) error {
	w.Header().Set("X-Cache", string(state))
	w.Header().Set("X-STW-Dims", v.dims().String())
	w.Header().Set("X-STW-Time", strconv.FormatFloat(tv, 'g', -1, 64))
	switch format := paramOr(r, "format", "raw"); format {
	case "raw":
		buf := v.raw()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
		_, err := w.Write(buf)
		return err
	case "json":
		return writeJSON(w, map[string]any{
			"dims": v.dims().String(),
			"time": tv,
			"data": v.samples(),
		})
	default:
		return badRequest("format must be raw or json, got %q", format)
	}
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	return enc.Encode(v)
}

// intParam parses an integer query parameter, returning def when absent.
func intParam(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, badRequest("parameter %s must be an integer, got %q", name, s)
	}
	return v, nil
}

func paramOr(r *http.Request, name, def string) string {
	if v := r.URL.Query().Get(name); v != "" {
		return v
	}
	return def
}
