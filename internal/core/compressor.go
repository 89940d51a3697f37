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
	// Groups holds the encoded coefficients, produced by the window's
	// codec (Opts.Codec; sparse when unset): one row per level group
	// (coarsest first, see LevelGroups), one block per time slice within
	// each row. A slice-major window is the layout with no spatial level
	// split off: one row whose group is the whole grid in canonical
	// order. A level-major (Opts.Progressive) window's rows may stop
	// short of SpatialLevels+1 when finer levels were shed.
	Groups [][]codec.Block
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
	if len(cw.Groups) == 0 {
		return 0
	}
	return len(cw.Groups[0])
}

// groupLevels returns the number of spatial levels split off as level
// groups: every one in the level-major layout, none in the slice-major
// layout. LevelGroups(cw.Dims, cw.groupLevels()) is the geometry of
// cw.Groups.
func (cw *CompressedWindow) groupLevels() int {
	if cw.Opts.Progressive {
		return cw.SpatialLevels
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

// eachBlock visits every encoded block of the window.
func (cw *CompressedWindow) eachBlock(fn func(codec.Block)) {
	for _, row := range cw.Groups {
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
	// is transformed.
	Copy Input = iota
	// InPlace: w holds samples, and on return — error or not — it holds
	// the window's wavelet coefficients. Selection never writes, so the
	// coefficients stay intact for a later Coefficients call. Under the
	// verified modes (MaxErr, TargetNRMSE) the samples are first cloned
	// into a pooled slab, because the error is measured against them.
	InPlace
	// Coefficients: w already holds the coefficients of a window that a
	// compressor with the same transform configuration (kernels, levels,
	// mode) transformed; no transform runs and w is only read. Because
	// Forward4D is deterministic, the bytes equal compressing the raw
	// window at c's ratio. The verified modes reject it: there are no
	// samples to verify against.
	Coefficients
)

// Compress compresses one window of time slices according to c's mode,
// reading w as in says. In 4D mode the window length should normally
// equal Options.WindowSize, but any length >= 1 is accepted: temporal
// levels adapt to the actual length (shorter final windows at end of
// simulation). At F = float32 the transform, threshold, and encode all
// move 4-byte samples, and the verified modes measure the float32
// reconstruction against the float32 samples.
//
// When ctx carries a trace, the transform, threshold, and encode stages
// each record a span under "core.compress_window", and stage throughputs
// land in the process-wide metrics registry either way. The output bytes
// depend only on c's options and the window's samples, never on in.
func Compress[F num.Float](ctx context.Context, c *Compressor, w *grid.WindowOf[F], in Input) (*CompressedWindow, error) {
	verified := c.opts.MaxErr > 0 || c.opts.TargetNRMSE > 0
	switch {
	case w.Len() == 0:
		return nil, fmt.Errorf("core: cannot compress an empty window")
	case in < Copy || in > Coefficients:
		return nil, fmt.Errorf("core: unknown compress input %d", int(in))
	case verified && in == Coefficients:
		return nil, fmt.Errorf("core: the verified modes (MaxErr, TargetNRMSE) measure against the raw samples, which Coefficients input lacks")
	}
	ctx, sp := obs.Start(ctx, "core.compress_window")
	defer sp.End()
	raw, work := w, w
	if in == Copy || verified { // verified rules out Coefficients above
		slab := scratch.FloatsOf[F](w.TotalSamples())
		defer scratch.PutFloatsOf(slab)
		if in == Copy {
			work = cloneInto(w, slab)
		} else {
			raw = cloneInto(w, slab)
		}
	}
	spec := c.opts.spec(w.Dims, w.Len())
	if in != Coefficients {
		if err := transform.Forward4DCtx(ctx, work, spec); err != nil {
			return nil, fmt.Errorf("core: forward transform: %w", err)
		}
	}
	workers := par.Workers(c.opts.Workers)
	switch {
	case c.opts.MaxErr > 0:
		return maxErrOf(ctx, c, raw, work, spec, workers)
	case c.opts.TargetNRMSE > 0:
		return targetOf(ctx, c, raw, work, spec, workers)
	}
	return encodeCoefficients(ctx, c, work, spec, workers)
}

// CompressWindowOf is Compress with Copy input, kept for the benchmark
// harness.
func CompressWindowOf[F num.Float](ctx context.Context, c *Compressor, w *grid.WindowOf[F]) (*CompressedWindow, error) {
	return Compress(ctx, c, w, Copy)
}

// cloneInto copies w's samples into slab, carved into per-slice fields,
// so the working copy costs O(1) allocations regardless of window size.
func cloneInto[F num.Float](w *grid.WindowOf[F], slab []F) *grid.WindowOf[F] {
	c := carveWindow(w.Dims, w.Len(), slab, w.Times)
	for i, f := range c.Slices {
		copy(f.Data, w.Slices[i].Data)
	}
	obs.Default().Counter("core.window_clone_bytes_total").Add(int64(c.TotalSamples()) * int64(num.SampleBytes[F]()))
	return c
}

// carveWindow lays t slices of dims over slab, in order, without copying.
func carveWindow[F num.Float](dims grid.Dims, t int, slab []F, times []float64) *grid.WindowOf[F] {
	s := dims.Len()
	fields := make([]grid.Field3DOf[F], t)
	slices := make([]*grid.Field3DOf[F], t)
	for i := range fields {
		fields[i] = grid.Field3DOf[F]{Dims: dims, Data: slab[i*s : (i+1)*s : (i+1)*s]}
		slices[i] = &fields[i]
	}
	return &grid.WindowOf[F]{Dims: dims, Slices: slices, Times: times}
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
	cw.Groups, err = encodeSurvivors(cdc, survs, cw.Dims, cw.groupLevels(), workers)
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

// encodeSurvivors encodes per-slice survivors as one row of blocks per
// level group of LevelGroups(dims, groupLevels), coarsest first. With
// more than one group the level index splits the survivors into pooled
// slabs; the one-group layout hands them to the codec as they are. Only
// survivors are touched.
func encodeSurvivors(cdc codec.Codec, survs []compress.Survivors, dims grid.Dims, groupLevels, workers int) ([][]codec.Block, error) {
	rows := [][]compress.Survivors{survs}
	if groupLevels > 0 {
		n := 0
		for _, s := range survs {
			n += len(s.Idx)
		}
		idx, val := scratch.Ints(n), scratch.Floats(n)
		defer scratch.PutInts(idx)
		defer scratch.PutFloats(val)
		rows = newLevelIndex(dims, groupLevels).split(survs, workers, idx, val)
	}
	groups := make([][]codec.Block, len(rows))
	for g, row := range rows {
		blocks, err := cdc.EncodeSurvivors(row, workers)
		if err != nil {
			return nil, fmt.Errorf("core: %s encode of level group %d: %w", cdc.Name(), g, err)
		}
		groups[g] = blocks
	}
	return groups, nil
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
