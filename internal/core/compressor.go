package core

import (
	"context"
	"fmt"
	"time"

	"stwave/internal/codec"
	"stwave/internal/compress"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/obs"
	"stwave/internal/par"
	"stwave/internal/scratch"
	"stwave/internal/transform"
)

// observeThroughput records one stage's throughput in MB/s (raw float64
// bytes moved divided by wall time) into the process-wide registry. Calls
// with a non-positive elapsed time are dropped rather than recorded as
// infinities.
func observeThroughput(name string, rawBytes int64, elapsed time.Duration) {
	if elapsed <= 0 {
		return
	}
	mb := float64(rawBytes) / (1 << 20)
	obs.Default().Histogram(name).Observe(mb / elapsed.Seconds())
}

// Compressor applies windowed wavelet compression with a fixed
// configuration. It is safe for concurrent use by multiple goroutines: all
// state is per-call.
type Compressor struct {
	opts Options
}

// New validates opts and returns a ready Compressor.
func New(opts Options) (*Compressor, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Compressor{opts: opts}, nil
}

// Options returns the compressor's configuration.
func (c *Compressor) Options() Options { return c.opts }

// CompressedWindow is the compressed form of one window of time slices,
// carrying everything needed for standalone reconstruction.
type CompressedWindow struct {
	Dims  grid.Dims
	Times []float64
	// Opts records the configuration used, with levels resolved to the
	// concrete values applied (never -1).
	Opts Options
	// SpatialLevels / TemporalLevels are the resolved transform depths.
	SpatialLevels  int
	TemporalLevels int
	// Blocks holds one encoded coefficient block per time slice, produced
	// by the window's codec (Opts.Codec; sparse when unset). Empty for
	// progressive windows, which carry LevelBlocks instead.
	Blocks []codec.Block
	// LevelBlocks holds the level-major progressive encoding: one row
	// per level group (coarsest first, see LevelGroups), one block per
	// time slice within each row. Rows may stop short of
	// SpatialLevels+1 when finer levels were shed. Exactly one of
	// Blocks / LevelBlocks is populated.
	LevelBlocks [][]codec.Block
	// Precision records which pipeline produced the window: Float32
	// windows were transformed, thresholded, and encoded entirely at
	// single precision and decode natively through Reconstruct[float32].
	// The flag is serialized in the window header; legacy containers
	// (which never set it) read back as Float64.
	Precision Precision
	// MaxErrAchieved / ROIMaxErrAchieved record the verified maximum
	// absolute reconstruction errors (background / ROI) measured at
	// compress time by the error-bounded mode. Informational only: they
	// are not serialized. Zero when Ratio-mode thresholding was used.
	MaxErrAchieved    float64
	ROIMaxErrAchieved float64
}

// NumSlices returns the number of time slices in the window.
func (cw *CompressedWindow) NumSlices() int {
	if len(cw.Blocks) > 0 {
		return len(cw.Blocks)
	}
	if len(cw.LevelBlocks) > 0 {
		return len(cw.LevelBlocks[0])
	}
	return 0
}

// timeAt returns the simulation time of slice i, defaulting to its index
// when the window carries no timeline.
func (cw *CompressedWindow) timeAt(i int) float64 {
	if i < len(cw.Times) {
		return cw.Times[i]
	}
	return float64(i)
}

// eachBlock visits every encoded block of the window in either layout.
func (cw *CompressedWindow) eachBlock(fn func(codec.Block)) {
	for _, b := range cw.Blocks {
		fn(b)
	}
	for _, row := range cw.LevelBlocks {
		for _, b := range row {
			fn(b)
		}
	}
}

// Codec returns the coefficient backend the window's blocks belong to.
func (cw *CompressedWindow) Codec() codec.Codec { return cw.Opts.codec() }

// EncodedSizeBytes returns the true serialized payload size of all blocks
// (headers included).
func (cw *CompressedWindow) EncodedSizeBytes() int64 {
	var n int64
	cw.eachBlock(func(b codec.Block) { n += b.EncodedSizeBytes() })
	return n
}

// IdealSizeBytes returns the paper's accounting: 4 bytes per retained
// coefficient, ignoring significance-map overhead. Backends whose blocks
// don't expose the idealized column (it is a sparse-format notion) report
// their true encoded size instead, which never overstates the advantage.
func (cw *CompressedWindow) IdealSizeBytes() int64 {
	var n int64
	cw.eachBlock(func(b codec.Block) {
		if is, ok := b.(codec.IdealSizer); ok {
			n += is.IdealSizeBytes()
		} else {
			n += b.EncodedSizeBytes()
		}
	})
	return n
}

// DeflatedSizeBytes returns the size after the DEFLATE entropy stage
// (framed per block) — the third size accounting next to IdealSizeBytes and
// EncodedSizeBytes. Blocks that don't support the DEFLATE stage (already
// entropy-coded backends gain nothing from it) report their encoded size.
func (cw *CompressedWindow) DeflatedSizeBytes() (int64, error) {
	var n int64
	var firstErr error
	cw.eachBlock(func(b codec.Block) {
		if firstErr != nil {
			return
		}
		ds, ok := b.(codec.DeflatedSizer)
		if !ok {
			n += b.EncodedSizeBytes()
			return
		}
		d, err := ds.DeflatedSizeBytes()
		if err != nil {
			firstErr = err
			return
		}
		n += d
	})
	if firstErr != nil {
		return 0, firstErr
	}
	return n, nil
}

// RetainedCoefficients returns the total number of surviving coefficients.
func (cw *CompressedWindow) RetainedCoefficients() int {
	n := 0
	cw.eachBlock(func(b codec.Block) { n += b.Retained() })
	return n
}

// Input says what the window handed to Compress holds and whether
// Compress may overwrite it.
type Input int

const (
	// Copy: w holds samples and is left untouched; a pooled working copy
	// is transformed. The only input the error-bounded mode (MaxErr)
	// accepts, because its bound is verified against the raw samples.
	Copy Input = iota
	// InPlace: w holds samples, and on return — error or not — it holds
	// the window's wavelet coefficients. Selection never writes, so the
	// coefficients stay intact for a later Coefficients call.
	InPlace
	// Coefficients: w already holds the coefficients of a window that a
	// compressor with the same transform configuration (kernels, levels,
	// mode) transformed; no transform runs and w is only read. Because
	// Forward4D is deterministic, the bytes equal compressing the raw
	// window at c's ratio.
	Coefficients
)

// Compress compresses one window of time slices according to c's mode,
// reading w as in says. In 4D mode the window length should normally
// equal Options.WindowSize, but any length >= 1 is accepted: temporal
// levels adapt to the actual length (shorter final windows at end of
// simulation). At F = float32 the transform, threshold, and encode all
// move 4-byte samples; MaxErr is defined on the float64 oracle only.
//
// When ctx carries a trace, the transform, threshold, and encode stages
// each record a span under "core.compress_window", and stage throughputs
// land in the process-wide metrics registry either way. The output bytes
// depend only on c's options and the window's samples, never on in.
func Compress[F num.Float](ctx context.Context, c *Compressor, w *grid.WindowOf[F], in Input) (*CompressedWindow, error) {
	switch {
	case w.Len() == 0:
		return nil, fmt.Errorf("core: cannot compress an empty window")
	case in < Copy || in > Coefficients:
		return nil, fmt.Errorf("core: unknown compress input %d", int(in))
	case c.opts.MaxErr > 0 && in != Copy:
		return nil, fmt.Errorf("core: error-bounded mode (MaxErr) verifies against the raw window and needs Copy input")
	}
	ctx, sp := obs.Start(ctx, "core.compress_window")
	defer sp.End()
	work := w
	if in == Copy {
		slab := scratch.FloatsOf[F](w.TotalSamples())
		defer scratch.PutFloatsOf(slab)
		work = cloneInto(w, slab)
	}
	spec := c.opts.spec(w.Dims, w.Len())
	if in != Coefficients {
		if err := transform.Forward4DCtx(ctx, work, spec); err != nil {
			return nil, fmt.Errorf("core: forward transform: %w", err)
		}
	}
	workers := par.Workers(c.opts.Workers)
	if c.opts.MaxErr <= 0 {
		return encodeCoefficients(ctx, c, work, spec, workers)
	}
	// Error-bounded mode: threshold and encode fuse into one verified
	// loop, because the bound is checked on the exact encoded stream
	// (codec quantization included).
	orig, okW := any(w).(*grid.Window)
	coeffs, okC := any(work).(*grid.Window)
	if !okW || !okC {
		return nil, fmt.Errorf("core: error-bounded mode (MaxErr) requires the float64 pipeline")
	}
	cw := newCompressedWindow(c, work, spec)
	rawBytes := int64(work.TotalSamples()) * int64(num.SampleBytes[F]())
	_, spTh := obs.Start(ctx, "core.threshold_maxerr")
	start := time.Now()
	err := c.thresholdMaxErr(orig, coeffs, spec, workers, cw)
	spTh.End()
	if err != nil {
		return nil, err
	}
	observeThroughput("compress.threshold_mb_per_s", rawBytes, time.Since(start))
	finishWindow(cw, rawBytes)
	return cw, nil
}

// CompressWindowOf is Compress with Copy input, kept for the benchmark
// harness.
func CompressWindowOf[F num.Float](ctx context.Context, c *Compressor, w *grid.WindowOf[F]) (*CompressedWindow, error) {
	return Compress(ctx, c, w, Copy)
}

// cloneInto copies w's samples into slab, carved into per-slice fields,
// so the working copy costs O(1) allocations regardless of window size.
func cloneInto[F num.Float](w *grid.WindowOf[F], slab []F) *grid.WindowOf[F] {
	t, s := w.Len(), w.Dims.Len()
	fields := make([]grid.Field3DOf[F], t)
	slices := make([]*grid.Field3DOf[F], t)
	for i := range fields {
		d := slab[i*s : (i+1)*s : (i+1)*s]
		copy(d, w.Slices[i].Data)
		fields[i] = grid.Field3DOf[F]{Dims: w.Dims, Data: d}
		slices[i] = &fields[i]
	}
	obs.Default().Counter("core.window_clone_bytes_total").Add(int64(t*s) * int64(num.SampleBytes[F]()))
	return &grid.WindowOf[F]{Dims: w.Dims, Slices: slices, Times: w.Times}
}

// newCompressedWindow starts the compressed form of a window transformed
// under spec; the encode stage fills in its blocks.
func newCompressedWindow[F num.Float](c *Compressor, w *grid.WindowOf[F], spec transform.Spec) *CompressedWindow {
	return &CompressedWindow{
		Dims:           w.Dims,
		Times:          append([]float64(nil), w.Times...),
		Opts:           c.opts,
		SpatialLevels:  spec.SpatialLevels,
		TemporalLevels: spec.TemporalLevels,
		Precision:      precisionOf[F](),
	}
}

// encodeCoefficients is Compress's ratio-mode tail: select survivors
// from the transformed window (the "core.threshold" span) and encode them
// in the configured layout ("core.encode"). The survivor slabs come from
// the scratch arena and go back once encoded: every codec copies what it
// keeps, so no block references them.
func encodeCoefficients[F num.Float](ctx context.Context, c *Compressor, coeffs *grid.WindowOf[F], spec transform.Spec, workers int) (*CompressedWindow, error) {
	rawBytes := int64(coeffs.TotalSamples()) * int64(num.SampleBytes[F]())
	datas := make([][]F, coeffs.Len())
	for i, f := range coeffs.Slices {
		datas[i] = f.Data
	}
	cdc := c.opts.codec()
	cw := newCompressedWindow(c, coeffs, spec)

	keep, slab, err := survivorBudget(c.opts, datas)
	if err != nil {
		return nil, err
	}
	idx, val := scratch.Ints(slab), scratch.Floats(slab)
	defer scratch.PutInts(idx)
	defer scratch.PutFloats(val)
	_, spTh := obs.Start(ctx, "core.threshold")
	start := time.Now()
	survs := selectOf(c.opts, datas, keep, workers, idx, val)
	spTh.End()
	observeThroughput("compress.threshold_mb_per_s", rawBytes, time.Since(start))

	_, spEnc := obs.Start(ctx, "core.encode")
	start = time.Now()
	cw.Blocks, cw.LevelBlocks, err = encodeSurvivors(cdc, survs, cw.Dims, cw.SpatialLevels, c.opts.Progressive, workers)
	spEnc.End()
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	observeThroughput("compress.encode_mb_per_s", rawBytes, elapsed)
	observeThroughput("codec.encode_mb_per_s."+cdc.Name(), rawBytes, elapsed)
	finishWindow(cw, rawBytes)
	return cw, nil
}

// encodeSurvivors encodes per-slice survivors in the window's layout: one
// block per slice, or, progressive, one row of blocks per level group
// (coarsest first) split by the level index into pooled slabs. Only
// survivors are touched.
func encodeSurvivors(cdc codec.Codec, survs []compress.Survivors, dims grid.Dims, spatialLevels int, progressive bool, workers int) ([]codec.Block, [][]codec.Block, error) {
	if !progressive {
		blocks, err := cdc.EncodeSurvivors(survs, workers)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s encode: %w", cdc.Name(), err)
		}
		return blocks, nil, nil
	}
	n := 0
	for _, s := range survs {
		n += len(s.Idx)
	}
	idx, val := scratch.Ints(n), scratch.Floats(n)
	defer scratch.PutInts(idx)
	defer scratch.PutFloats(val)
	rows := newLevelIndex(dims, spatialLevels).split(survs, workers, idx, val)
	levelBlocks := make([][]codec.Block, len(rows))
	for g, row := range rows {
		blocks, err := cdc.EncodeSurvivors(row, workers)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s encode of level group %d: %w", cdc.Name(), g, err)
		}
		levelBlocks[g] = blocks
	}
	return nil, levelBlocks, nil
}

// finishWindow records the window-level compress metrics.
func finishWindow(cw *CompressedWindow, rawBytes int64) {
	if enc := cw.EncodedSizeBytes(); enc > 0 {
		obs.Default().Gauge("codec.ratio." + cw.Codec().Name()).Set(float64(rawBytes) / float64(enc))
	}
	obs.Default().Counter("core.compress_windows_total").Add(1)
}

// RoundTrip compresses then decompresses a window — the operation every
// error-evaluation experiment performs. It never modifies w.
func (c *Compressor) RoundTrip(w *grid.Window) (*grid.Window, *CompressedWindow, error) {
	cw, err := Compress(context.Background(), c, w, Copy)
	if err != nil {
		return nil, nil, err
	}
	recon, err := Decompress(cw)
	if err != nil {
		return nil, nil, err
	}
	return recon, cw, nil
}
