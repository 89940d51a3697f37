package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/metrics"
	"stwave/internal/num"
	"stwave/internal/server"
	"stwave/internal/storage"
	"stwave/internal/transform"
)

type serveKind int

const (
	serveCold    serveKind = iota // every request decompresses a window
	servePreview                  // every request decodes a coarse prefix
	serveHotMix                   // every request is a cache hit
)

// route classifies a request for the per-route latencies.
type route int

const (
	routeSlice route = iota
	routeCrop
	routePreview
	routeRender
	routeLevels
	routeCoarseSlice
)

// hotCycle is the fixed 20-slot request mix of serve_hot_mix: 10 slice,
// 4 crop, 3 preview, 2 render, 1 level table.
var hotCycle = [20]route{
	routeSlice, routeCrop, routeSlice, routePreview, routeSlice,
	routeRender, routeSlice, routeCrop, routeSlice, routeSlice,
	routePreview, routeCrop, routeSlice, routeLevels, routeSlice,
	routeRender, routeCrop, routePreview, routeSlice, routeSlice,
}

// request is one generated HTTP op and what a correct answer looks like.
type request struct {
	url      string
	route    route
	set      *dataset
	window   int
	t        int
	wantLen  int    // body bytes; -1: any non-empty body
	wantDims string // X-STW-Dims; "": not a field response
}

// dataset is one container built in set-up and mounted on the server.
type dataset struct {
	name    string
	spec    ingestSpec
	windows int
	path    string
	size    int64
	file    *countingReader // the server's handle
	lengths []int64         // serialized bytes of each window
}

// serveCounters is a snapshot of the server's and the mounted files'
// counters. All of them move before a response is written, so a snapshot
// taken when the last response has arrived is exact.
type serveCounters struct {
	hits, misses, decompressions, partial, coalesced int64
	reads                                            readCounts
}

func (a serveCounters) sub(b serveCounters) serveCounters {
	return serveCounters{
		hits: a.hits - b.hits, misses: a.misses - b.misses,
		decompressions: a.decompressions - b.decompressions, partial: a.partial - b.partial,
		coalesced: a.coalesced - b.coalesced,
		reads:     readCounts{a.reads.reads - b.reads.reads, a.reads.bytes - b.reads.bytes},
	}
}

// serveWorkload measures the read path through a real loopback listener.
type serveWorkload struct {
	env  *env
	kind serveKind

	fx      *fixture
	sets    []*dataset
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	clients int

	levels       int // spatial decomposition depth of the grid
	previewLevel int // levels=K of serve_preview's coarse slice

	// direct is the harness's own reader over the first dataset, for the
	// traced pass's replays.
	direct     *storage.ContainerReader
	directFile *countingReader

	primed bool
	routes map[route][]float64

	// Totals over the timed passes. Nothing else touches the server between
	// the first and the last of them, so the counters are one difference.
	// Bytes served are counted by the clients: the server adds to its own
	// counter after the body is sent, too late for the snapshot.
	timedStart, timed *serveCounters
	timedOps          int
	timedBytesServed  int64
	timedFullBytes    int64 // record bytes of the windows requested
}

func (w *serveWorkload) setup() error {
	fx, err := newFixture(w.env.seed, w.env.dims, w.env.window)
	if err != nil {
		return err
	}
	w.fx = fx
	w.levels = transform.Levels3D(core.DefaultOptions().SpatialKernel, fx.dims)
	w.previewLevel = max(w.levels-2, 0)
	w.routes = make(map[route][]float64)

	raw64, raw32 := fx.rawWindowBytes(false), fx.rawWindowBytes(true)
	cfg := server.Config{RequestTimeout: 30 * time.Second}
	w.clients = 1
	switch w.kind {
	case serveCold:
		w.sets = []*dataset{{name: "a", spec: specF64, windows: 8}}
		cfg.CacheBytes = 2 * raw64
	case servePreview:
		w.sets = []*dataset{{name: "b", spec: specF32Preview, windows: 8}}
	case serveHotMix:
		w.sets = []*dataset{{name: "a", spec: specF64, windows: 4}, {name: "b", spec: specF32Preview, windows: 4}}
		cfg.CacheBytes = 8 * (raw64 + raw32)
		w.clients = 2
	}
	w.srv = server.New(cfg)
	for _, ds := range w.sets {
		if err := w.build(ds); err != nil {
			return err
		}
	}
	w.direct, w.directFile, err = openCounted(w.sets[0].path)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: w.clients,
		DisableCompression:  true,
	}}
	return nil
}

// openCounted opens a container behind a counting file wrapper.
func openCounted(path string) (*storage.ContainerReader, *countingReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() //stlint:ignore uncheckederr read-only handle released on an error path already being reported
		return nil, nil, err
	}
	cr := &countingReader{f: f}
	r, err := storage.NewContainerReader(cr, st.Size())
	if err != nil {
		f.Close() //stlint:ignore uncheckederr read-only handle released on an error path already being reported
		return nil, nil, err
	}
	return r, cr, nil
}

// build ingests the dataset's container with the shipped engine and
// mounts it on the server behind a counting file wrapper.
func (w *serveWorkload) build(ds *dataset) error {
	ds.path = filepath.Join(w.env.tmp, ds.name+".stw")
	var (
		run ingestRun
		err error
	)
	if ds.spec.f32 {
		run, err = runEngine[float32](w.fx, ds.spec, ds.windows, ds.path)
	} else {
		run, err = runEngine[float64](w.fx, ds.spec, ds.windows, ds.path)
	}
	if err != nil {
		return err
	}
	if run.pass.failed > 0 {
		return fmt.Errorf("building dataset %s: engine appended %d of %d windows", ds.name, run.stats.WindowsAppended, ds.windows)
	}
	ds.size = run.size
	r, cr, err := openCounted(ds.path)
	if err != nil {
		return err
	}
	ds.file = cr
	ds.lengths = make([]int64, ds.windows)
	for i := range ds.lengths {
		if ds.lengths[i], err = r.WindowSizeBytes(i); err != nil {
			r.Close() //stlint:ignore uncheckederr read-only handle released on an error path already being reported
			return err
		}
	}
	if err := w.srv.MountReader(ds.name, r); err != nil {
		r.Close() //stlint:ignore uncheckederr read-only handle released on an error path already being reported
		return err
	}
	return nil
}

func (w *serveWorkload) teardown() error {
	var first error
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.hs != nil {
		first = w.hs.Close()
		if err := <-w.served; !errors.Is(err, http.ErrServerClosed) && first == nil {
			first = err
		}
	}
	if w.srv != nil {
		if err := w.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	if w.direct != nil {
		if err := w.direct.Close(); err != nil && first == nil {
			first = err
		}
	}
	*w = serveWorkload{env: w.env, kind: w.kind}
	return first
}

func (w *serveWorkload) fixtureHash() string { return w.fx.sha256() }

// opsHash names the request sequence of a pass: paths and queries, without
// the listener's address, which changes from run to run.
func (w *serveWorkload) opsHash(ops int) string {
	h := sha256.New()
	for c := 0; c < w.clients; c++ {
		for _, rq := range w.sequence(c, ops/w.clients) {
			h.Write([]byte(strings.TrimPrefix(rq.url, w.base))) //stlint:ignore uncheckederr hash.Hash.Write never returns an error
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *serveWorkload) storedBytesPerRawByte() float64 {
	var stored, raw int64
	for _, ds := range w.sets {
		stored += ds.size
		raw += int64(ds.windows) * w.fx.rawWindowBytes(ds.spec.f32)
	}
	return float64(stored) / float64(raw)
}

// field makes a request whose answer is a raw float32 field of dims d.
func (w *serveWorkload) field(ds *dataset, r route, t int, d grid.Dims, pathQuery string) request {
	return request{
		url: w.base + "/v1/" + ds.name + "/" + pathQuery, route: r, set: ds,
		window: t / w.fx.window, t: t, wantLen: 4 * d.Len(), wantDims: d.String(),
	}
}

// sequence generates client c's ops for one pass. Every pass of a run
// replays the same sequence; the seed reaches the server only as the time
// indices and crop origins in these URLs.
func (w *serveWorkload) sequence(c, ops int) []request {
	rng := rand.New(rand.NewSource(w.env.seed*7919 + int64(c)))
	d, win := w.fx.dims, w.fx.window
	out := make([]request, 0, ops)
	for i := 0; i < ops; i++ {
		switch w.kind {
		case serveCold:
			// Window i mod 8 with two windows of cache: LRU never hits.
			t := (i%w.sets[0].windows)*win + rng.Intn(win)
			out = append(out, w.field(w.sets[0], routeSlice, t, d, "slice?t="+strconv.Itoa(t)))
		case servePreview:
			t := (i%w.sets[0].windows)*win + rng.Intn(win)
			cd := transform.CoarseDims(d, w.levels-w.previewLevel)
			out = append(out, w.field(w.sets[0], routeCoarseSlice, t, cd,
				fmt.Sprintf("slice?t=%d&levels=%d", t, w.previewLevel)))
		case serveHotMix:
			ds := w.sets[rng.Intn(len(w.sets))]
			t := rng.Intn(ds.windows * win)
			out = append(out, w.hotRequest(hotCycle[i%len(hotCycle)], ds, t, rng))
		}
	}
	return out
}

func (w *serveWorkload) hotRequest(r route, ds *dataset, t int, rng *rand.Rand) request {
	d := w.fx.dims
	switch r {
	case routeCrop:
		box := grid.Dims{Nx: d.Nx / 2, Ny: d.Ny / 2, Nz: d.Nz / 2}
		return w.field(ds, r, t, box, fmt.Sprintf("crop?t=%d&x0=%d&y0=%d&z0=%d&nx=%d&ny=%d&nz=%d", t,
			rng.Intn(d.Nx-box.Nx+1), rng.Intn(d.Ny-box.Ny+1), rng.Intn(d.Nz-box.Nz+1), box.Nx, box.Ny, box.Nz))
	case routePreview:
		return w.field(ds, r, t, transform.CoarseDims(d, 1), fmt.Sprintf("preview?t=%d&levels=1", t))
	case routeRender:
		kind := [2]string{"slice", "mip"}[rng.Intn(2)]
		return request{url: fmt.Sprintf("%s/v1/%s/render?t=%d&kind=%s", w.base, ds.name, t, kind),
			route: r, set: ds, window: t / w.fx.window, t: t, wantLen: -1}
	case routeLevels:
		wi := t / w.fx.window
		return request{url: fmt.Sprintf("%s/v1/%s/window/%d/levels", w.base, ds.name, wi),
			route: r, set: ds, window: wi, t: t, wantLen: -1}
	}
	return w.field(ds, routeSlice, t, d, "slice?t="+strconv.Itoa(t))
}

// do sends one request, reads the whole body into buf, and checks status,
// length and dims. The body's samples are checked in verify, not here.
func (w *serveWorkload) do(rq request, buf *bytes.Buffer) (time.Duration, http.Header, bool) {
	start := time.Now()
	resp, err := w.client.Get(rq.url)
	if err != nil {
		return 0, nil, false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	cerr := resp.Body.Close()
	el := time.Since(start)
	ok := err == nil && cerr == nil && resp.StatusCode == http.StatusOK &&
		(rq.wantLen == buf.Len() || rq.wantLen < 0 && buf.Len() > 0) &&
		(rq.wantDims == "" || resp.Header.Get("X-STW-Dims") == rq.wantDims)
	return el, resp.Header, ok
}

func (w *serveWorkload) counters() serveCounters {
	m := w.srv.Metrics()
	c := serveCounters{
		hits: m.CacheHits.Load(), misses: m.CacheMisses.Load(),
		decompressions: m.Decompressions.Load(), partial: m.PartialDecodes.Load(),
		coalesced: m.Coalesced.Load(),
	}
	for _, ds := range w.sets {
		s := ds.file.snapshot()
		c.reads.reads += s.reads
		c.reads.bytes += s.bytes
	}
	return c
}

// prime touches every window and preview key once, so that serve_hot_mix
// times cache hits only.
func (w *serveWorkload) prime() int {
	var buf bytes.Buffer
	failed := 0
	for _, ds := range w.sets {
		for wi := 0; wi < ds.windows; wi++ {
			for _, r := range []route{routeSlice, routePreview} {
				if _, _, ok := w.do(w.hotRequest(r, ds, wi*w.fx.window, nil), &buf); !ok {
					failed++
				}
			}
		}
	}
	return failed
}

func (w *serveWorkload) pass(ops int, timed bool) (passStats, error) {
	per := ops / w.clients
	seqs := make([][]request, w.clients)
	var fullBytes int64
	for c := range seqs {
		seqs[c] = w.sequence(c, per)
		for _, rq := range seqs[c] {
			fullBytes += rq.set.lengths[rq.window]
		}
	}
	st := passStats{ops: per * w.clients}
	if w.kind == serveHotMix && !w.primed {
		w.primed = true
		st.failed += w.prime()
	}

	type clientResult struct {
		lat     []float64
		routes  []route
		bytes   int64
		failed  int
		samples []opSample
	}
	results := make([]clientResult, w.clients)
	if timed && w.timedStart == nil {
		c := w.counters()
		w.timedStart = &c
	}
	cpu0, start := processCPU(), time.Now()
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			res := &results[c]
			res.lat = make([]float64, 0, per)
			res.routes = make([]route, 0, per)
			for _, rq := range seqs[c] {
				el, _, ok := w.do(rq, &buf)
				if !ok {
					res.failed++
					continue
				}
				res.lat = append(res.lat, ms(el))
				res.routes = append(res.routes, rq.route)
				res.bytes += int64(buf.Len())
				res.samples = append(res.samples, opSample{time.Since(start), processCPU() - cpu0, ms(el)})
			}
		}()
	}
	wg.Wait()
	st.wall, st.cpu = time.Since(start), processCPU()-cpu0
	for _, res := range results {
		st.failed += res.failed
		st.latencies = append(st.latencies, res.lat...)
		st.samples = append(st.samples, res.samples...)
		if timed {
			w.timedBytesServed += res.bytes
			for i, r := range res.routes {
				w.routes[r] = append(w.routes[r], res.lat[i])
			}
		}
	}
	if timed {
		c := w.counters().sub(*w.timedStart)
		w.timed = &c
		w.timedOps += st.ops
		w.timedFullBytes += fullBytes
	}
	return st, nil
}

// specOf is the transform configuration a compressed window records.
func specOf(cw *core.CompressedWindow, spatialLevels int) transform.Spec {
	return transform.Spec{
		SpatialKernel:  cw.Opts.SpatialKernel,
		SpatialLevels:  spatialLevels,
		TemporalKernel: cw.Opts.TemporalKernel,
		TemporalLevels: cw.TemporalLevels,
	}
}

// replayInverse times the inverse transform inside a decompress by
// transforming the reconstruction forward again (untimed) and inverting
// it, as a replay span under parent.
func replayInverse[F num.Float](rec *recorder, parent int, win *grid.WindowOf[F], spec transform.Spec) error {
	if err := transform.Forward4D(win, spec); err != nil {
		return err
	}
	id := rec.beginReplay("transform.inverse4d", parent)
	err := transform.Inverse4DCtx(context.Background(), win, spec)
	rec.end(id)
	return err
}

// replayRead explains a traced request on the cold paths: the harness
// reads and decompresses the same window through the same public calls
// the server makes, as replay spans under the request.
func (w *serveWorkload) replayRead(rec *recorder, parent int, rq request) error {
	ctx := context.Background()
	id := rec.beginReplay("storage.read_window", parent)
	var (
		cw  *core.CompressedWindow
		err error
	)
	if w.kind == servePreview {
		cw, _, err = w.direct.ReadWindowLevelsCtx(ctx, rq.window, w.previewLevel)
	} else {
		cw, err = w.direct.ReadWindowCtx(ctx, rq.window)
	}
	rec.end(id)
	if err != nil {
		return err
	}
	if w.kind == servePreview {
		id = rec.beginReplay("core.decompress_levels", parent)
		win, err := core.DecompressLevels32Ctx(ctx, cw, w.previewLevel)
		rec.end(id)
		if err != nil {
			return err
		}
		return replayInverse(rec, id, win, specOf(cw, w.previewLevel))
	}
	id = rec.beginReplay("core.decompress", parent)
	win, err := core.DecompressCtx(ctx, cw)
	rec.end(id)
	if err != nil {
		return err
	}
	return replayInverse(rec, id, win, specOf(cw, cw.SpatialLevels))
}

// serial sends client 0's ops one at a time. With a recorder it is the
// traced pass (request span, then the replays that explain it); without
// one it is the same requests untraced.
func (w *serveWorkload) serial(ops int, rec *recorder) (serialStats, error) {
	w.directFile.rec = rec
	defer func() { w.directFile.rec = nil }()
	var buf bytes.Buffer
	out := serialStats{ops: ops}
	cpu0 := processCPU()
	for _, rq := range w.sequence(0, ops) {
		op := rec.begin("op")
		id := rec.begin("server.request")
		el, _, ok := w.do(rq, &buf)
		rec.end(id)
		rec.end(op)
		if !ok {
			return serialStats{}, fmt.Errorf("traced request %s failed", rq.url)
		}
		out.opTime += el
		if rec != nil && w.kind != serveHotMix {
			if err := w.replayRead(rec, id, rq); err != nil {
				return serialStats{}, err
			}
		}
		rec.nextOp()
	}
	out.cpu = processCPU() - cpu0
	return out, nil
}

// floats decodes a little-endian float32 body.
func floats(body []byte) []float64 {
	out := make([]float64, len(body)/4)
	for i := range out {
		out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:])))
	}
	return out
}

// minPSNR is the floor below which a served field counts as wrong rather
// than lossy: ratio 32 on this fixture reconstructs tens of dB above it.
const minPSNR = 30

// verify checks the timed passes' cache counters, then fetches one URL per
// route and level and compares the samples with the fixture. psnr_db accumulates the full-resolution answers (for
// serve_preview, the coarse slices against the coarse approximation of
// the original).
func (w *serveWorkload) verify() (verdict, error) {
	var v verdict
	var buf bytes.Buffer
	// The timed passes measured what the workload's name says only if the
	// cache behaved as the workload assumes.
	v.attempted++
	switch c := *w.timed; {
	case w.kind == serveHotMix && c.misses != 0:
		v.fail("serve_hot_mix missed the cache %d times: it must time hits only", c.misses)
	case w.kind != serveHotMix && c.hits != 0:
		v.fail("cold workload hit the cache %d times: it must time misses only", c.hits)
	}
	acc := metrics.NewAccumulator()
	kernel := core.DefaultOptions().SpatialKernel

	// fetch checks the envelope and returns the body's samples.
	fetch := func(rq request) []float64 {
		v.attempted++
		_, hdr, ok := w.do(rq, &buf)
		if !ok {
			v.fail("%s: bad status, length or dims", rq.url)
			return nil
		}
		if rq.wantDims == "" {
			return nil
		}
		want := strconv.FormatFloat(float64(rq.t)*w.fx.dt, 'g', -1, 64)
		if got := hdr.Get("X-STW-Time"); got != want {
			v.fail("%s: X-STW-Time %s, want %s", rq.url, got, want)
		}
		return floats(buf.Bytes())
	}
	// compare scores got against want, adding to the headline accumulator
	// when headline is set.
	compare := func(rq request, want, got []float64, headline bool) {
		if got == nil {
			return
		}
		p, err := metrics.PSNR(want, got)
		if err != nil || p < minPSNR {
			v.fail("%s: PSNR %.2f dB against the fixture (%v)", rq.url, p, err)
			return
		}
		if headline {
			if err := acc.Add(want, got); err != nil {
				v.fail("%s: %v", rq.url, err)
			}
		}
	}
	coarse := func(t, levels int) []float64 {
		c, err := transform.CoarseApproximation(w.fx.f64[w.fx.index(t)], kernel, levels, 0)
		if err != nil {
			v.fail("coarse approximation: %v", err)
			return nil
		}
		return c.Data
	}

	d, win := w.fx.dims, w.fx.window
	for _, ds := range w.sets {
		for wi := 0; wi < ds.windows; wi++ {
			t := wi*win + win/2
			orig := w.fx.f64[w.fx.index(t)]
			switch w.kind {
			case serveCold:
				rq := w.field(ds, routeSlice, t, d, "slice?t="+strconv.Itoa(t))
				compare(rq, orig.Data, fetch(rq), true)
			case servePreview:
				cd := transform.CoarseDims(d, w.levels-w.previewLevel)
				rq := w.field(ds, routeCoarseSlice, t, cd, fmt.Sprintf("slice?t=%d&levels=%d", t, w.previewLevel))
				if want := coarse(t, w.levels-w.previewLevel); want != nil {
					compare(rq, want, fetch(rq), true)
				}
			case serveHotMix:
				rq := w.hotRequest(routeSlice, ds, t, nil)
				compare(rq, orig.Data, fetch(rq), true)
				if wi > 0 {
					continue // the other routes: one URL per dataset
				}

				box := grid.Dims{Nx: d.Nx / 2, Ny: d.Ny / 2, Nz: d.Nz / 2}
				rq = w.field(ds, routeCrop, t, box, fmt.Sprintf("crop?t=%d&x0=1&y0=2&z0=3&nx=%d&ny=%d&nz=%d", t, box.Nx, box.Ny, box.Nz))
				if sub, err := orig.SubVolume(1, 2, 3, box.Nx, box.Ny, box.Nz); err != nil {
					v.fail("crop reference: %v", err)
				} else {
					compare(rq, sub.Data, fetch(rq), true)
				}

				rq = w.hotRequest(routePreview, ds, t, nil)
				if want := coarse(t, 1); want != nil {
					compare(rq, want, fetch(rq), false)
				}

				for _, kind := range []string{"slice", "mip"} {
					rq = request{url: fmt.Sprintf("%s/v1/%s/render?t=%d&kind=%s", w.base, ds.name, t, kind), wantLen: -1}
					fetch(rq)
					if hdr := fmt.Sprintf("P5\n%d %d\n255\n", d.Nx, d.Ny); !bytes.HasPrefix(buf.Bytes(), []byte(hdr)) || buf.Len() != len(hdr)+d.Nx*d.Ny {
						v.fail("%s: not a %dx%d PGM", rq.url, d.Nx, d.Ny)
					}
				}

				rq = w.hotRequest(routeLevels, ds, t, nil)
				fetch(rq)
				var table struct {
					Progressive bool              `json:"progressive"`
					Levels      []json.RawMessage `json:"levels"`
				}
				if err := json.Unmarshal(buf.Bytes(), &table); err != nil || !table.Progressive || len(table.Levels) != w.levels+1 {
					v.fail("%s: level table %s (%v)", rq.url, buf.String(), err)
				}
			}
		}
	}
	v.psnr = acc.PSNR()
	return v, nil
}

func (w *serveWorkload) layerMetrics(m map[string]float64, r *runResult) {
	by := r.layers
	per := func(d time.Duration) float64 { return ms(d) / float64(max(r.traced.ops, 1)) }
	m["storage.read_ms_per_op"] = per(by["storage.read_window"].total)
	m["core.decompress_ms_per_op"] = per(by["core.decompress"].total)
	m["core.decode_self_ms_per_op"] = per(by["core.decompress"].self)
	m["core.decompress_levels_ms_per_op"] = per(by["core.decompress_levels"].total)
	m["transform.inverse4d_ms_per_op"] = per(by["transform.inverse4d"].total)
	m["server.self_ms_per_op"] = per(by["server.request"].self)

	c := *w.timed
	n := float64(max(w.timedOps, 1))
	m["storage.bytes_read_per_op"] = float64(c.reads.bytes) / n
	m["storage.read_calls_per_op"] = float64(c.reads.reads) / n
	if w.timedFullBytes > 0 {
		m["storage.prefix_read_fraction"] = float64(c.reads.bytes) / float64(w.timedFullBytes)
	}
	if c.hits+c.misses > 0 {
		m["server.cache_hit_ratio"] = float64(c.hits) / float64(c.hits+c.misses)
	}
	m["server.decompressions_per_op"] = float64(c.decompressions) / n
	m["server.partial_decodes_per_op"] = float64(c.partial) / n
	m["server.coalesced_per_op"] = float64(c.coalesced) / n
	m["server.bytes_served_per_op"] = float64(w.timedBytesServed) / n
	m["server.latency_p90_ms"] = percentile(r.pooledLatencies, 0.9)
	m["server.latency_p99_ms"] = percentile(r.pooledLatencies, 0.99)
	if w.kind == serveHotMix {
		m["server.slice_hot_p50_ms"] = median(w.routes[routeSlice])
		m["server.crop_hot_p50_ms"] = median(w.routes[routeCrop])
		m["server.preview_hot_p50_ms"] = median(w.routes[routePreview])
		m["server.render_hot_p50_ms"] = median(w.routes[routeRender])
	}
}
