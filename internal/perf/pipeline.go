package perf

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"stwave/internal/codec"
	"stwave/internal/compress"
	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/ingest"
	"stwave/internal/num"
	"stwave/internal/obs"
	"stwave/internal/server"
	"stwave/internal/sim/synth"
	"stwave/internal/storage"
	"stwave/internal/transform"
	"stwave/internal/wavelet"
)

// Pipeline workload shape: small enough that -quick finishes in seconds,
// large enough that per-op noise stays in the low percents at the
// default MinTime.
const (
	benchN      = 24 // grid edge (24^3 points per slice)
	benchSlices = 10
	benchWindow = 5
	benchRatio  = 32
	// benchWorkers = 0 measures the shipped default (all CPUs). The
	// scaling.* series pins explicit worker budgets so cross-machine
	// files stay interpretable via the env block.
	benchWorkers = 0
	// Ingest-scaling workload: small enough that the 100-window run
	// stays in the hundreds of milliseconds, long enough that the
	// bounded-memory ledger actually gates admission.
	ingestN      = 16
	ingestWindow = 4
	// Solver-sampling workload: the repo benchmark's fixture slice.
	simN = 64
)

// benchGrid builds a temporally coherent window that compresses like
// simulation output (smooth in space, slowly scaling in time).
func benchGrid() *grid.Window {
	d := grid.Dims{Nx: benchN, Ny: benchN, Nz: benchN}
	w := grid.NewWindow(d)
	for t := 0; t < benchSlices; t++ {
		f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
		for z := 0; z < d.Nz; z++ {
			for y := 0; y < d.Ny; y++ {
				for x := 0; x < d.Nx; x++ {
					f.Data[f.Index(x, y, z)] = math.Sin(0.3*float64(x)+0.1*float64(t)) *
						math.Cos(0.2*float64(y)) * math.Sin(0.25*float64(z)+0.05*float64(t))
				}
			}
		}
		if err := w.Append(f, float64(t)); err != nil {
			panic(err) // dims are static; Append cannot fail
		}
	}
	return w
}

// benchGrid32 is benchGrid narrowed to float32: the same coherent signal,
// half the bytes, for the fast-path comparison rows.
func benchGrid32() *grid.Window32 {
	src := benchGrid()
	w := grid.NewWindow32(src.Dims)
	for i, s := range src.Slices {
		f := grid.NewField3D32(src.Dims.Nx, src.Dims.Ny, src.Dims.Nz)
		num.Convert(f.Data, s.Data)
		if err := w.Append(f, src.Times[i]); err != nil {
			panic(err) // dims are static; Append cannot fail
		}
	}
	return w
}

// pipelineBenchmark is one entry of the standard suite. fn receives a
// context so a traced demonstration run can flow spans through the same
// code path the measurement used.
type pipelineBenchmark struct {
	name       string
	bytesPerOp int64
	fn         func(ctx context.Context) error
}

// RunPipeline measures the standard pipeline suite — transform,
// threshold, encode/decode, container write/read, HTTP serving — and
// returns the results in suite order. When ctx carries an obs trace
// root, each benchmark also runs one traced iteration so the caller can
// dump a span tree of the exact measured code paths. Progress lines go
// to progress when non-nil.
func RunPipeline(ctx context.Context, cfg Config, progress io.Writer) ([]Result, error) {
	w := benchGrid()
	rawBytes := int64(w.TotalSamples()) * 8

	opts := core.DefaultOptions()
	opts.WindowSize = benchWindow
	opts.Ratio = benchRatio
	opts.Workers = benchWorkers
	comp, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	spec := transform.Spec{
		SpatialKernel: wavelet.CDF97, SpatialLevels: -1,
		TemporalKernel: wavelet.CDF97, TemporalLevels: -1,
		Workers: benchWorkers,
	}

	// Fixed inputs for the decode-side benchmarks.
	transformed := w.Clone()
	if err := transform.Forward4D(transformed, spec); err != nil {
		return nil, err
	}
	cw, err := core.Compress(context.Background(), comp, w, core.Copy)
	if err != nil {
		return nil, err
	}

	// Fixed thresholded coefficient slices for the codec-level
	// benchmarks, and a compressor pinned to the entropy backend for the
	// end-to-end comparison against core.compress_window.
	datas := make([][]float64, len(transformed.Slices))
	for i, s := range transformed.Slices {
		datas[i] = append([]float64(nil), s.Data...)
		if _, err := compress.ThresholdRatio(datas[i], benchRatio); err != nil {
			return nil, err
		}
	}
	entCodec := codec.Entropy()
	entBlocks, err := entCodec.EncodeSlices(datas, benchWorkers)
	if err != nil {
		return nil, err
	}
	// The shipped compress tail: the window-joint selection over the 4D
	// coefficients, and the survivor lists it hands the encoder.
	transformedDatas := make([][]float64, len(transformed.Slices))
	for i, s := range transformed.Slices {
		transformedDatas[i] = s.Data
	}
	keep, err := compress.KeepCount(transformed.TotalSamples(), benchRatio)
	if err != nil {
		return nil, err
	}
	survs := compress.SelectSurvivors(transformedDatas, keep, benchWorkers)
	decodeScratch := make([]float64, len(datas[0]))
	entOpts := opts
	entOpts.Codec = entCodec
	entComp, err := core.New(entOpts)
	if err != nil {
		return nil, err
	}

	// Persistent working window for the in-place stages: the timed loop
	// copies the fixed input over it instead of cloning, so the
	// measurement sees the stage's own allocations, not the harness's.
	work := w.Clone()
	copyInto := func(dst, src *grid.Window) {
		for i, s := range src.Slices {
			copy(dst.Slices[i].Data, s.Data)
		}
	}

	// float32 fast-path fixtures: the same coherent window at half the
	// bytes, a working copy for the in-place transform, and a matching
	// container for the cold serving row. Comparing these rows against
	// their f64 twins is the memory-bound speedup claim in benchmark form.
	w32 := benchGrid32()
	rawBytes32 := int64(w32.TotalSamples()) * 4
	work32 := w32.Clone()
	copyInto32 := func(dst, src *grid.Window32) {
		for i, s := range src.Slices {
			copy(dst.Slices[i].Data, s.Data)
		}
	}

	// Progressive fixtures: the same window in the level-major layout,
	// for the partial-decode and coarse-first serving benchmarks.
	progOpts := opts
	progOpts.Progressive = true
	progComp, err := core.New(progOpts)
	if err != nil {
		return nil, err
	}
	progCW, err := core.Compress(context.Background(), progComp, w, core.Copy)
	if err != nil {
		return nil, err
	}
	coarse := transform.CoarseDims(w.Dims, progCW.SpatialLevels)
	coarseBytes := int64(coarse.Len()) * int64(benchSlices) * 8

	// Container + server fixtures.
	dir, err := os.MkdirTemp("", "stwave-perf-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	contPath := filepath.Join(dir, "bench.stw")
	if err := writeBenchContainer(contPath, opts, w); err != nil {
		return nil, err
	}
	progPath := filepath.Join(dir, "bench-prog.stw")
	if err := writeBenchContainer(progPath, progOpts, w); err != nil {
		return nil, err
	}
	path32 := filepath.Join(dir, "bench-f32.stw")
	opts32 := opts
	opts32.Precision = core.Float32
	if err := writeBenchContainer(path32, opts32, w32); err != nil {
		return nil, err
	}
	reader, err := storage.OpenContainer(contPath)
	if err != nil {
		return nil, err
	}
	defer reader.Close()
	encodedBytes, err := reader.WindowSizeBytes(0)
	if err != nil {
		return nil, err
	}

	srv := server.New(server.DefaultConfig())
	if err := srv.Mount("bench", contPath); err != nil {
		return nil, err
	}
	if err := srv.Mount("benchprog", progPath); err != nil {
		return nil, err
	}
	if err := srv.Mount("bench32", path32); err != nil {
		return nil, err
	}
	defer srv.Close()
	handler := srv.Handler()
	serveURL := func(url string) error {
		req := httptest.NewRequest("GET", url, nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		return nil
	}
	serveSlice := func(t int) error {
		return serveURL(fmt.Sprintf("/v1/bench/slice?t=%d", t))
	}
	sliceBytes := int64(benchN*benchN*benchN) * 4 // float32 response payload
	coarseSliceBytes := int64(coarse.Len()) * 4

	suite := []pipelineBenchmark{
		{"xform.forward4d_cdf97", rawBytes, func(ctx context.Context) error {
			copyInto(work, w)
			return transform.Forward4DCtx(ctx, work, spec)
		}},
		{"xform.inverse4d_cdf97", rawBytes, func(ctx context.Context) error {
			copyInto(work, transformed)
			return transform.Inverse4DCtx(ctx, work, spec)
		}},
		{"compress.threshold", rawBytes, func(ctx context.Context) error {
			copyInto(work, transformed)
			for _, s := range work.Slices {
				if _, err := compress.ThresholdRatio(s.Data, benchRatio); err != nil {
					return err
				}
			}
			return nil
		}},
		{"core.compress_window", rawBytes, func(ctx context.Context) error {
			_, err := core.Compress(ctx, comp, w, core.Copy)
			return err
		}},
		{"core.decompress_window", rawBytes, func(ctx context.Context) error {
			_, err := core.Reconstruct[float64](ctx, cw, core.Query{MaxLevel: core.All, Slice: core.All})
			return err
		}},
		{"core.partial_decode", coarseBytes, func(ctx context.Context) error {
			_, err := core.Reconstruct[float64](ctx, progCW, core.Query{MaxLevel: 0, Slice: core.All})
			return err
		}},
		{"codec.entropy_encode", rawBytes, func(ctx context.Context) error {
			_, err := entCodec.EncodeSlices(datas, benchWorkers)
			return err
		}},
		{"codec.entropy_decode", rawBytes, func(ctx context.Context) error {
			for _, b := range entBlocks {
				if err := b.DecodeInto(decodeScratch, benchWorkers); err != nil {
					return err
				}
			}
			return nil
		}},
		{"core.compress_window_entropy", rawBytes, func(ctx context.Context) error {
			_, err := core.Compress(ctx, entComp, w, core.Copy)
			return err
		}},
		{"storage.write_container", cw.EncodedSizeBytes(), func(ctx context.Context) error {
			cont, err := storage.CreateContainer(filepath.Join(dir, "write.stw"))
			if err != nil {
				return err
			}
			if _, err := cont.AppendCtx(ctx, cw); err != nil {
				cont.Close() //stlint:ignore uncheckederr the Append error is what matters
				return err
			}
			return cont.Close()
		}},
		{"storage.read_window", encodedBytes, func(ctx context.Context) error {
			_, err := reader.ReadWindowCtx(ctx, 0)
			return err
		}},
		{"server.slice_hot", sliceBytes, func(ctx context.Context) error {
			return serveSlice(2)
		}},
		{"server.slice_cold", sliceBytes, func(ctx context.Context) error {
			srv.Cache().Flush()
			return serveSlice(2)
		}},
		{"server.slice_levelK", coarseSliceBytes, func(ctx context.Context) error {
			// Coarse-first serving end to end: the cache is flushed every
			// iteration so the measurement covers the level-bounded prefix
			// read and partial decode, not a cache hit.
			srv.Cache().Flush()
			return serveURL("/v1/benchprog/slice?t=2&levels=0")
		}},
		// float32 fast-path rows: the same workloads as their f64 twins
		// (xform.forward4d_cdf97, core.compress_window, server.slice_cold)
		// at half the bytes per sample. The memory-bound pipeline should
		// show these well under their f64 counterparts' ns/op.
		{"xform.forward4d_cdf97_f32", rawBytes32, func(ctx context.Context) error {
			copyInto32(work32, w32)
			return transform.Forward4DCtx(ctx, work32, spec)
		}},
		{"core.compress_window_f32", rawBytes32, func(ctx context.Context) error {
			_, err := core.Compress(ctx, comp, w32, core.Copy)
			return err
		}},
		{"server.slice_cold_f32", sliceBytes, func(ctx context.Context) error {
			srv.Cache().Flush()
			return serveURL("/v1/bench32/slice?t=2")
		}},
	}

	// Worker-scaling series: the full compress under pinned worker
	// budgets (1, 2, all CPUs), so a result file documents how the hot
	// path scales on the machine named in its env block.
	for _, sw := range []struct {
		name    string
		workers int
	}{
		{"scaling.compress_window_w1", 1},
		{"scaling.compress_window_w2", 2},
		{"scaling.compress_window_wmax", 0},
	} {
		o := opts
		o.Workers = sw.workers
		scomp, err := core.New(o)
		if err != nil {
			return nil, err
		}
		suite = append(suite, pipelineBenchmark{sw.name, rawBytes, func(ctx context.Context) error {
			_, err := core.Compress(ctx, scomp, w, core.Copy)
			return err
		}})
	}

	// Entropy-encode scaling pair: the codec stage alone under a pinned
	// single worker and the shipped default, bracketing how the Huffman
	// chunk pipeline scales on this machine.
	for _, sw := range []struct {
		name    string
		workers int
	}{
		{"scaling.entropy_encode_w1", 1},
		{"scaling.entropy_encode_wmax", 0},
	} {
		workers := sw.workers
		suite = append(suite, pipelineBenchmark{sw.name, rawBytes, func(ctx context.Context) error {
			_, err := entCodec.EncodeSlices(datas, workers)
			return err
		}})
	}

	// Streaming-ingest scaling pair: the full in-situ loop — source
	// sampling, window building, pipelined compression, journal append —
	// under a fixed three-window memory budget at two run lengths a
	// decade apart. Flat MB/s between the entries is the bounded-memory
	// property in throughput form: per-window cost must not grow with
	// run length. (The ledger ceiling itself is asserted by the ingest
	// package's bounded-memory test.)
	synthCfg := synth.DefaultConfig()
	synthCfg.Modes = 16 // the ensemble every committed scaling.ingest_* baseline sampled
	synthField, err := synth.NewField(synthCfg)
	if err != nil {
		return nil, err
	}
	ingestDims := grid.Dims{Nx: ingestN, Ny: ingestN, Nz: ingestN}
	ingestOpts := core.DefaultOptions()
	ingestOpts.WindowSize = ingestWindow
	ingestOpts.Ratio = benchRatio
	ingestBudget := 3 * ingestWindow * int64(ingestDims.Len()) * 8
	for _, sw := range []struct {
		name    string
		windows int
	}{
		{"scaling.ingest_10w", 10},
		{"scaling.ingest_100w", 100},
	} {
		slices := sw.windows * ingestWindow
		ingestBytes := int64(slices) * int64(ingestDims.Len()) * 8
		ingestPath := filepath.Join(dir, "ingest.stw")
		suite = append(suite, pipelineBenchmark{sw.name, ingestBytes, func(ctx context.Context) error {
			src, err := ingest.NewSynthSource(synthField, ingestDims, 1)
			if err != nil {
				return err
			}
			cont, err := storage.CreateContainer(ingestPath)
			if err != nil {
				return err
			}
			eng, err := ingest.NewEngineOf[float64](ingest.Config{
				Opts: ingestOpts, Workers: 2,
				MemBudget: ingestBudget, Policy: ingest.PolicyStall,
			}, ingestDims, cont)
			if err != nil {
				cont.Close() //stlint:ignore uncheckederr the construction error is what matters
				return err
			}
			if _, err := eng.Run(src, slices); err != nil {
				cont.Close() //stlint:ignore uncheckederr the run error is what matters
				return err
			}
			return cont.Close()
		}})
	}

	// Stand-in solver pair: one 64³ slice of the repo benchmark's 8-mode
	// synth fixture at each store; the rows compare in samples/s.
	simCfg := synth.DefaultConfig()
	simCfg.Modes = 8
	simField, err := synth.NewField(simCfg)
	if err != nil {
		return nil, err
	}
	sim64, sim32 := grid.NewField3D(simN, simN, simN), grid.NewField3D32(simN, simN, simN)
	simSamples := int64(sim64.Dims.Len())
	samplesPerOp := map[string]int64{"sim.synth_sample": simSamples, "sim.synth_sample_f32": simSamples}
	suite = append(suite,
		pipelineBenchmark{"sim.synth_sample", simSamples * 8, func(context.Context) error {
			return simField.SampleScalarInto(sim64, 2.5)
		}},
		pipelineBenchmark{"sim.synth_sample_f32", simSamples * 4, func(context.Context) error {
			return simField.SampleScalarInto32(sim32, 2.5)
		}})

	// Stage rows for the compress tail as core runs it: selection reads
	// the dense coefficients once, and the encoder sees survivors only.
	suite = append(suite,
		pipelineBenchmark{"compress.select_survivors", rawBytes, func(context.Context) error {
			compress.SelectSurvivors(transformedDatas, keep, benchWorkers)
			return nil
		}},
		pipelineBenchmark{"codec.entropy_encode_survivors", rawBytes, func(context.Context) error {
			_, err := entCodec.EncodeSurvivors(survs, benchWorkers)
			return err
		}})

	// Warm the server cache so slice_hot measures the steady state.
	if err := serveSlice(2); err != nil {
		return nil, err
	}

	results := make([]Result, 0, len(suite))
	for _, b := range suite {
		r, err := Measure(cfg, b.name, b.bytesPerOp, func() error {
			return b.fn(context.Background())
		})
		if err != nil {
			return nil, err
		}
		r.SamplesPerS = float64(samplesPerOp[b.name]) * 1e9 / r.NsPerOp
		if obs.FromContext(ctx) != nil {
			// One extra traced iteration per benchmark: spans flow through
			// the exact code the measurement loop just ran.
			bctx, sp := obs.Start(ctx, "perf."+b.name)
			if err := b.fn(bctx); err != nil {
				sp.End()
				return nil, err
			}
			sp.End()
		}
		if progress != nil {
			fmt.Fprintf(progress, "%-28s %10d iters  %14.0f ns/op  %10.2f MB/s  %8.1f allocs/op\n",
				r.Name, r.Iters, r.NsPerOp, r.MBPerS, r.AllocsPerOp)
		}
		results = append(results, r)
	}
	return results, nil
}

// writeBenchContainer streams the bench window into a fresh container
// through the streaming writer at the window's sample precision.
func writeBenchContainer[F num.Float](path string, opts core.Options, w *grid.WindowOf[F]) error {
	cont, err := storage.CreateContainer(path)
	if err != nil {
		return err
	}
	writer, err := core.NewWriterOf[F](opts, w.Dims, func(cw *core.CompressedWindow) error {
		_, err := cont.Append(cw)
		return err
	})
	if err != nil {
		cont.Close() //stlint:ignore uncheckederr the construction error is what matters
		return err
	}
	for i, s := range w.Slices {
		if err := writer.WriteSlice(s, float64(i)); err != nil {
			cont.Close() //stlint:ignore uncheckederr the write error is what matters
			return err
		}
	}
	if err := writer.Flush(); err != nil {
		cont.Close() //stlint:ignore uncheckederr the flush error is what matters
		return err
	}
	return cont.Close()
}
