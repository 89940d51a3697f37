package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"stwave/internal/codec"
	"stwave/internal/compress"
	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/ingest"
	"stwave/internal/metrics"
	"stwave/internal/num"
	"stwave/internal/scratch"
	"stwave/internal/storage"
	"stwave/internal/transform"
)

// ingestSpec is the compression configuration of an ingest workload; the
// serve workloads build their datasets with the same two.
type ingestSpec struct {
	f32         bool
	codec       codec.Codec // nil: the default sparse codec
	progressive bool
}

var (
	// specF64 is the archival write path: entropy coded, level-major.
	specF64 = ingestSpec{codec: codec.Entropy(), progressive: true}
	// specF32 is the fast write path: single precision, default codec.
	specF32 = ingestSpec{f32: true}
	// specF32Preview is dataset B of the serve workloads.
	specF32Preview = ingestSpec{f32: true, codec: codec.Entropy(), progressive: true}
)

const ingestRatio = 32

func (s ingestSpec) options(window int) core.Options {
	o := core.DefaultOptions()
	o.WindowSize = window
	o.Ratio = ingestRatio
	o.Codec = s.codec
	o.Progressive = s.progressive
	if s.f32 {
		o.Precision = core.Float32
	}
	return o
}

// engineConfig is the shipped in-situ configuration: two compression
// workers, room for three raw windows, and a solver that stalls when
// storage falls behind.
func (s ingestSpec) engineConfig(fx *fixture) ingest.Config {
	return ingest.Config{
		Opts:      s.options(fx.window),
		Workers:   2,
		MemBudget: 3 * fx.rawWindowBytes(s.f32),
		Policy:    ingest.PolicyStall,
	}
}

func newEngineOf[F num.Float](cfg ingest.Config, d grid.Dims, w *storage.ContainerWriter) (*ingest.EngineOf[F], error) {
	var (
		e   any
		err error
	)
	if num.Is32[F]() {
		e, err = ingest.NewEngine32(cfg, d, w)
	} else {
		e, err = ingest.NewEngine(cfg, d, w)
	}
	if err != nil {
		return nil, err
	}
	return e.(*ingest.EngineOf[F]), nil
}

// createContainer opens a per-window-fsynced container writer on a real
// file behind the counting wrapper.
func createContainer(path string, rec *recorder) (*storage.ContainerWriter, *countingFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	cf := &countingFile{f: f, rec: rec}
	w := storage.NewContainerWriter(cf)
	w.Sync = storage.SyncPerWindow
	return w, cf, nil
}

// ingestRun is what one Engine.Run into one container produced.
type ingestRun struct {
	pass  passStats
	stats ingest.Stats
	file  *countingFile
	size  int64 // container bytes
}

// runEngine streams windows fixture windows through the engine into a new
// container at path and closes it: one timed ingest pass, and also how
// the serve workloads build their datasets.
func runEngine[F num.Float](fx *fixture, spec ingestSpec, windows int, path string) (ingestRun, error) {
	w, cf, err := createContainer(path, nil)
	if err != nil {
		return ingestRun{}, err
	}
	eng, err := newEngineOf[F](spec.engineConfig(fx), fx.dims, w)
	if err != nil {
		w.Close() //stlint:ignore uncheckederr releasing the file on an error path already being reported
		return ingestRun{}, err
	}
	src := newReplaySource[F](fx)
	cpu0, start := processCPU(), time.Now()
	stats, runErr := eng.Run(src, windows*fx.window)
	closeErr := w.Close()
	wall, cpu := time.Since(start), processCPU()-cpu0
	if runErr != nil {
		return ingestRun{}, runErr
	}
	if closeErr != nil {
		return ingestRun{}, closeErr
	}
	st, err := os.Stat(path)
	if err != nil {
		return ingestRun{}, err
	}
	out := ingestRun{stats: stats, file: cf, size: st.Size()}
	out.pass = passStats{ops: windows, wall: wall, cpu: cpu}
	// A window is durable when the fsync after its record returns; the
	// two extra fsyncs at the end belong to Close.
	if len(cf.syncDone) < windows || len(src.starts) < windows || stats.WindowsAppended != windows {
		out.pass.failed = windows
		return out, nil
	}
	for i := 0; i < windows; i++ {
		out.pass.latencies = append(out.pass.latencies, ms(cf.syncDone[i].Sub(src.starts[i])))
		out.pass.samples = append(out.pass.samples, opSample{
			end: cf.syncDone[i].Sub(start), cpu: cf.syncCPU[i] - cpu0, latency: out.pass.latencies[i],
		})
	}
	return out, nil
}

// ingestWorkload measures the in-situ write path at precision F.
type ingestWorkload[F num.Float] struct {
	env  *env
	spec ingestSpec
	fx   *fixture
	path string // container of the most recent pass

	last    ingestRun
	runs    []ingestRun
	lastOps int
}

func (w *ingestWorkload[F]) setup() error {
	fx, err := newFixture(w.env.seed, w.env.dims, w.env.window)
	if err != nil {
		return err
	}
	w.fx = fx
	w.path = filepath.Join(w.env.tmp, "ingest.stw")
	return nil
}

func (w *ingestWorkload[F]) teardown() error {
	w.fx = nil
	return nil
}

func (w *ingestWorkload[F]) fixtureHash() string { return w.fx.sha256() }

// opsHash names the slice sequence a pass ingests.
func (w *ingestWorkload[F]) opsHash(ops int) string {
	h := sha256.New()
	for i := 0; i < ops*w.fx.window; i++ {
		fmt.Fprintf(h, "%d,", w.fx.index(i))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *ingestWorkload[F]) pass(ops int, timed bool) (passStats, error) {
	run, err := runEngine[F](w.fx, w.spec, ops, w.path)
	if err != nil {
		return passStats{}, err
	}
	w.last, w.lastOps = run, ops
	if timed {
		w.runs = append(w.runs, run)
	}
	return run.pass, nil
}

// storedBytesPerRawByte is the last pass's container size over the raw
// samples it holds.
func (w *ingestWorkload[F]) storedBytesPerRawByte() float64 {
	return float64(w.last.size) / float64(int64(w.lastOps)*w.fx.rawWindowBytes(w.spec.f32))
}

// fillWindow builds window wi of the replay the way the engine does: one
// pooled buffer per slice, filled through the source.
func fillWindow[F num.Float](fx *fixture, src *replaySource[F]) (*grid.WindowOf[F], error) {
	win := grid.NewWindowOf[F](fx.dims)
	for i := 0; i < fx.window; i++ {
		f, err := grid.FromDataOf(fx.dims.Nx, fx.dims.Ny, fx.dims.Nz, scratch.FloatsOf[F](fx.dims.Len()))
		if err != nil {
			return nil, err
		}
		t, err := src.Next(f)
		if err != nil {
			return nil, err
		}
		if err := win.Append(f, t); err != nil {
			return nil, err
		}
	}
	return win, nil
}

func releaseWindow[F num.Float](win *grid.WindowOf[F]) {
	for _, s := range win.Slices {
		scratch.PutFloatsOf(s.Data)
		s.Data = nil
	}
}

// thresholdSlices and encodeSlices call the precision's public stage.
func thresholdSlices[F num.Float](datas [][]F, keep, workers int) {
	switch d := any(datas).(type) {
	case [][]float64:
		compress.ThresholdSlices(d, keep, workers)
	case [][]float32:
		compress.ThresholdSlices32(d, keep, workers)
	}
}

func encodeSlices[F num.Float](cdc codec.Codec, datas [][]F, workers int) error {
	var err error
	switch d := any(datas).(type) {
	case [][]float64:
		_, err = cdc.EncodeSlices(d, workers)
	case [][]float32:
		_, err = cdc.EncodeSlices32(d, workers)
	}
	return err
}

// replayCompress times the stages inside core.CompressWindowOf by calling
// each on a copy of the same window, as replay spans under parent. The
// copy lands in work, allocated once per pass: a fresh 42 MB window per op
// would trigger a collection that empties the program's scratch pools and
// slows the next op's measured spans.
func replayCompress[F num.Float](rec *recorder, parent int, opts core.Options, win, work *grid.WindowOf[F]) error {
	ctx := context.Background()
	for i, s := range win.Slices {
		copy(work.Slices[i].Data, s.Data)
	}
	workers := runtime.GOMAXPROCS(0)

	// The depths core resolves from these options: the Equation 2 maximum.
	spec := transform.Spec{
		SpatialKernel: opts.SpatialKernel, SpatialLevels: -1,
		TemporalKernel: opts.TemporalKernel, TemporalLevels: -1,
	}
	id := rec.beginReplay("transform.forward4d", parent)
	err := transform.Forward4DCtx(ctx, work, spec)
	rec.end(id)
	if err != nil {
		return err
	}

	datas := make([][]F, work.Len())
	for i, s := range work.Slices {
		datas[i] = s.Data
	}
	keep, err := compress.KeepCount(work.TotalSamples(), opts.Ratio)
	if err != nil {
		return err
	}
	id = rec.beginReplay("compress.threshold", parent)
	thresholdSlices(datas, keep, workers)
	rec.end(id)

	cdc := opts.Codec
	if cdc == nil {
		cdc = codec.Default()
	}
	id = rec.beginReplay("codec.encode", parent)
	err = encodeSlices(cdc, datas, workers)
	rec.end(id)
	return err
}

// serialOp runs one window from the harness — fill, compress, append —
// with no engine in between, then (traced only) replays the compress
// stages on the same window.
func (w *ingestWorkload[F]) serialOp(rec *recorder, src *replaySource[F], comp *core.Compressor, cw *storage.ContainerWriter, work *grid.WindowOf[F]) (time.Duration, error) {
	start := time.Now()
	op := rec.begin("op")
	id := rec.begin("source.fill")
	win, err := fillWindow(w.fx, src)
	rec.end(id)
	if err != nil {
		return 0, err
	}
	defer releaseWindow(win)
	compressSpan := rec.begin("core.compress_window")
	c, err := core.CompressWindowOf(context.Background(), comp, win)
	rec.end(compressSpan)
	if err != nil {
		return 0, err
	}
	id = rec.begin("storage.append")
	_, err = cw.Append(c)
	rec.end(id)
	rec.end(op)
	el := time.Since(start)
	if err != nil || rec == nil {
		return el, err
	}
	return el, replayCompress(rec, compressSpan, comp.Options(), win, work)
}

// serial runs ops windows back to back through serialOp. With a recorder
// it is the traced pass; without one it is the same work untraced, which
// gives the serial op time and CPU the engine's overlap is judged against.
func (w *ingestWorkload[F]) serial(ops int, rec *recorder) (serialStats, error) {
	path := filepath.Join(w.env.tmp, "serial.stw")
	cw, cf, err := createContainer(path, rec)
	if err != nil {
		return serialStats{}, err
	}
	defer os.Remove(path) // scratch container; the run directory is removed at exit anyway
	comp, err := core.New(w.spec.options(w.fx.window))
	if err != nil {
		cw.Close() //stlint:ignore uncheckederr releasing the file on an error path already being reported
		return serialStats{}, err
	}
	src := newReplaySource[F](w.fx)
	var work *grid.WindowOf[F]
	if rec != nil {
		work = (&grid.WindowOf[F]{Dims: w.fx.dims, Slices: slicesOf[F](w.fx)[:w.fx.window]}).Clone()
	}
	out := serialStats{ops: ops}
	cpu0 := processCPU()
	for i := 0; i < ops; i++ {
		el, err := w.serialOp(rec, src, comp, cw, work)
		if err != nil {
			cw.Close() //stlint:ignore uncheckederr releasing the file on an error path already being reported
			return serialStats{}, err
		}
		out.opTime += el
		rec.nextOp()
	}
	out.cpu = processCPU() - cpu0
	cf.rec = nil // Close's index write and fsyncs belong to no op
	return out, cw.Close()
}

// verify reopens the last pass's container and checks the window count,
// every window's header, and — on three sampled windows — the timeline
// and the reconstruction against the fixture.
func (w *ingestWorkload[F]) verify() (verdict, error) {
	var v verdict
	r, err := storage.OpenContainer(w.path)
	if err != nil {
		return v, err
	}
	defer r.Close() // read-only handle; nothing to flush
	v.attempted++
	if r.NumWindows() != w.lastOps {
		v.fail("container holds %d windows, ingested %d", r.NumWindows(), w.lastOps)
		return v, nil
	}
	for i := 0; i < r.NumWindows(); i++ {
		v.attempted++
		info, err := r.WindowInfo(i)
		if err != nil || info.NumSlices != w.fx.window || info.Dims != w.fx.dims || info.Gap != nil {
			v.fail("window %d header: %+v, %v", i, info, err)
		}
	}
	acc := metrics.NewAccumulator()
	for _, wi := range []int{0, w.lastOps / 2, w.lastOps - 1} {
		v.attempted++
		cw, err := r.ReadWindow(wi)
		if err != nil {
			v.fail("reading window %d: %v", wi, err)
			continue
		}
		var recon *grid.Window
		if w.spec.f32 {
			var w32 *grid.Window32
			if w32, err = core.Decompress32(cw); err == nil {
				recon = w32.Widen()
			}
		} else {
			recon, err = core.Decompress(cw)
		}
		if err != nil {
			v.fail("decoding window %d: %v", wi, err)
			continue
		}
		for i, s := range recon.Slices {
			step := wi*w.fx.window + i
			//stlint:ignore floateq the timeline is copied, not computed: any difference is a defect
			if recon.Times[i] != float64(step)*w.fx.dt {
				v.fail("window %d slice %d at time %g, want %g", wi, i, recon.Times[i], float64(step)*w.fx.dt)
			}
			if err := acc.Add(w.fx.f64[w.fx.index(step)].Data, s.Data); err != nil {
				v.fail("window %d slice %d: %v", wi, i, err)
			}
		}
	}
	v.psnr = acc.PSNR()
	return v, nil
}

// layerMetrics fills the ingest-side per-layer metrics from the timed
// passes, the traced pass and the untraced serial pass.
func (w *ingestWorkload[F]) layerMetrics(m map[string]float64, r *runResult) {
	by := r.layers
	per := func(d time.Duration) float64 { return ms(d) / float64(max(r.traced.ops, 1)) }
	m["source.fill_ms_per_op"] = per(by["source.fill"].total)
	m["transform.forward4d_ms_per_op"] = per(by["transform.forward4d"].total)
	if t := by["transform.forward4d"].total; t > 0 {
		raw := float64(w.fx.rawWindowBytes(w.spec.f32)) * float64(r.traced.ops)
		m["transform.forward4d_mb_per_s"] = raw / (1 << 20) / t.Seconds()
	}
	m["compress.threshold_ms_per_op"] = per(by["compress.threshold"].total)
	m["codec.encode_ms_per_op"] = per(by["codec.encode"].total)
	m["core.compress_window_ms_per_op"] = per(by["core.compress_window"].total)
	m["core.compress_self_ms_per_op"] = per(by["core.compress_window"].self)
	m["storage.append_ms_per_op"] = per(by["storage.append"].total)
	m["storage.write_ms_per_op"] = per(by["storage.write"].total)
	m["storage.fsync_ms_per_op"] = per(by["storage.fsync"].total)

	var ops, backpressure int
	var writes, syncs int
	var bytes, peak int64
	for _, run := range w.runs {
		ops += run.pass.ops
		backpressure += run.stats.Backpressure
		writes += run.file.writes
		syncs += run.file.syncs
		bytes += run.file.bytes
		peak = max(peak, run.stats.PeakInFlightBytes)
	}
	n := float64(max(ops, 1))
	m["storage.bytes_written_per_op"] = float64(bytes) / n
	m["storage.write_calls_per_op"] = float64(writes) / n
	m["storage.fsync_calls_per_op"] = float64(syncs) / n
	m["ingest.backpressure_events_per_op"] = float64(backpressure) / n
	m["ingest.peak_inflight_mb"] = float64(peak) / (1 << 20)
	m["ingest.latency_p90_ms"] = percentile(r.pooledLatencies, 0.9)

	serialMS := ms(r.untraced.opTime) / float64(max(r.untraced.ops, 1))
	m["ingest.serial_op_ms"] = serialMS
	m["ingest.overlap_factor"] = serialMS * m["ops_per_s"] / 1000
	m["ingest.engine_overhead_cpu_ms_per_op"] = m["cpu_ms_per_op"] - ms(r.untraced.cpu)/float64(max(r.untraced.ops, 1))
}
