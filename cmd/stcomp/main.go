// Command stcomp compresses and decompresses raw volume time series with
// the stwave spatiotemporal codec.
//
// Compress a series of float32 raw volumes into a container:
//
//	stcomp compress -dims 64x64x64 -ratio 32 -window 20 -mode 4d \
//	    -out data.stw slice000.raw slice001.raw ...
//
// Decompress a container back into raw volumes:
//
//	stcomp decompress -in data.stw -prefix recon/slice
//
// Inspect a container:
//
//	stcomp info -in data.stw
//
// Stream straight from a built-in simulation through bounded-memory
// compression into a container (in-situ ingest), with a backpressure
// policy for when storage cannot keep up:
//
//	stcomp ingest -source synth -dims 64x64x64 -slices 200 -window 20 \
//	    -policy degrade -ladder 64,128 -mem-budget 268435456 -out data.stw
//
// Compress with -trace FILE to also write a JSON span tree of the run —
// per-window compress/threshold/encode timings down to the transform
// stages — for offline inspection (see OPERATIONS.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"stwave/internal/codec"
	"stwave/internal/core"
	"stwave/internal/entropy"
	"stwave/internal/grid"
	"stwave/internal/ingest"
	"stwave/internal/num"
	"stwave/internal/obs"
	"stwave/internal/sim/cloverleaf"
	"stwave/internal/sim/ghost"
	"stwave/internal/sim/synth"
	"stwave/internal/sim/tornado"
	"stwave/internal/storage"
	"stwave/internal/wavelet"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "compress":
		err = runCompress(os.Args[2:])
	case "decompress":
		err = runDecompress(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "ingest":
		err = runIngest(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stcomp: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  stcomp compress -dims NXxNYxNZ [-ratio N] [-window T] [-mode 3d|4d]
         [-precision f64|f32] [-skernel K] [-tkernel K]
         [-codec sparse|deflate|entropy]
         [-entropy-bits N] [-entropy-error-bound X] [-entropy-lossless]
         [-progressive] [-target-nrmse X | -max-err X [-roi x0,y0,z0,x1,y1,z1 -roi-max-err X]]
         [-fsync never|window|close] [-atomic]
         [-trace FILE] -out FILE slice0.raw [slice1.raw ...]
  stcomp decompress -in FILE -prefix PREFIX
  stcomp info -in FILE
  stcomp ingest -source ghost|cloverleaf|tornado|synth -dims NXxNYxNZ
         -slices N [-window T] [-mode 3d|4d] [-ratio N] [-precision f64|f32]
         [-progressive] [-workers N] [-policy stall|degrade|shed]
         [-mem-budget BYTES] [-deadline D] [-ladder R1,R2,...] [-stage DIR]
         [-dt X] [-seed N] [-fsync never|window|close] -out FILE`)
}

func runCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	dimsStr := fs.String("dims", "", "grid dims NXxNYxNZ (required)")
	ratio := fs.Float64("ratio", 32, "compression ratio n:1")
	window := fs.Int("window", 20, "window size (4D mode)")
	mode := fs.String("mode", "4d", "3d or 4d")
	precisionName := fs.String("precision", "f64", "pipeline sample precision: f64 (reference) or f32 (half the bytes end to end)")
	skernel := fs.String("skernel", "cdf97", "spatial wavelet kernel")
	tkernel := fs.String("tkernel", "cdf97", "temporal wavelet kernel")
	targetNRMSE := fs.Float64("target-nrmse", 0, "if > 0, pick the ratio per window to meet this NRMSE instead of -ratio")
	progressive := fs.Bool("progressive", false, "store windows level-major (v4) so readers can stream a coarse preview from a byte prefix")
	maxErr := fs.Float64("max-err", 0, "if > 0, error-bounded mode: threshold adaptively so max absolute error <= bound everywhere (replaces -ratio)")
	roiStr := fs.String("roi", "", "region of interest x0,y0,z0,x1,y1,z1 (half-open box) held to -roi-max-err; requires -max-err")
	roiMaxErr := fs.Float64("roi-max-err", 0, "tighter max absolute error bound inside the -roi box")
	codecName := fs.String("codec", "sparse", "coefficient backend: sparse, deflate, or entropy (see OPERATIONS.md)")
	entropyBits := fs.Int("entropy-bits", 16, "entropy codec: magnitude bits per quantized value (adaptive per-block step)")
	entropyBound := fs.Float64("entropy-error-bound", 0, "entropy codec: absolute quantization error bound (overrides -entropy-bits step)")
	entropyLossless := fs.Bool("entropy-lossless", false, "entropy codec: store exact float32 bits (bit-identical to sparse, still smaller)")
	fsyncPolicy := fs.String("fsync", "never", "fsync policy: never, window (after every appended window), or close")
	atomic := fs.Bool("atomic", false, "stage output at OUT.tmp and rename on Close, so OUT only ever holds a complete container")
	tracePath := fs.String("trace", "", "write a JSON span tree of the compression run to this file")
	out := fs.String("out", "", "output container path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dimsStr == "" || *out == "" || fs.NArg() == 0 {
		return fmt.Errorf("compress requires -dims, -out, and at least one input slice")
	}
	dims, err := grid.ParseDims(*dimsStr)
	if err != nil {
		return err
	}
	sk, err := wavelet.ParseKernel(*skernel)
	if err != nil {
		return err
	}
	tk, err := wavelet.ParseKernel(*tkernel)
	if err != nil {
		return err
	}
	precision, err := core.ParsePrecision(*precisionName)
	if err != nil {
		return err
	}
	opts := core.Options{
		SpatialKernel:  sk,
		TemporalKernel: tk,
		WindowSize:     *window,
		Ratio:          *ratio,
		SpatialLevels:  -1,
		TemporalLevels: -1,
		Progressive:    *progressive,
		MaxErr:         *maxErr,
		TargetNRMSE:    *targetNRMSE,
		Precision:      precision,
	}
	if *roiStr != "" {
		roi, err := parseROI(*roiStr, *roiMaxErr)
		if err != nil {
			return err
		}
		opts.ROI = roi
	} else if *roiMaxErr > 0 {
		return fmt.Errorf("-roi-max-err requires -roi")
	}
	if opts.Mode, err = core.ParseMode(*mode); err != nil {
		return err
	}
	name := strings.ToLower(*codecName)
	if name == "entropy" {
		opts.Codec, err = codec.EntropyWith(entropy.Params{
			BitDepth:   *entropyBits,
			ErrorBound: *entropyBound,
			Lossless:   *entropyLossless,
		})
	} else {
		opts.Codec, err = codec.ByName(name)
	}
	if err != nil {
		return err
	}

	if err := opts.Validate(); err != nil {
		return err
	}
	syncPol, err := storage.ParseSyncPolicy(*fsyncPolicy)
	if err != nil {
		return err
	}
	dst := container{path: *out, atomic: *atomic, sync: syncPol}
	ctx := context.Background()
	var root *obs.Span
	if *tracePath != "" {
		ctx, root = obs.StartRoot(ctx, "stcomp.compress")
	}
	if precision == core.Float32 {
		err = compressFilesOf[float32](ctx, opts, dims, fs.Args(), dst)
	} else {
		err = compressFilesOf[float64](ctx, opts, dims, fs.Args(), dst)
	}
	if err != nil {
		return err
	}
	return dumpTrace(root, *tracePath)
}

// container names the output container of a run: its path, whether it
// is staged at path.tmp and renamed into place on Close, and its fsync
// policy.
type container struct {
	path   string
	atomic bool
	sync   storage.SyncPolicy
}

// create creates the container for writing.
func (c container) create() (*storage.ContainerWriter, error) {
	create := storage.CreateContainer
	if c.atomic {
		create = storage.CreateContainerAtomic
	}
	cw, err := create(c.path)
	if err != nil {
		return nil, err
	}
	cw.Sync = c.sync
	return cw, nil
}

// compressFilesOf streams the input raw volumes through the ingest engine
// at precision F into out, one window compressing at a time on every
// core. Raw inputs are float32 on disk either way; with -precision f32
// they stay float32 from load to durable bytes.
func compressFilesOf[F num.Float](ctx context.Context, opts core.Options, dims grid.Dims, paths []string, out container) error {
	// Every input is checked before out is created: a rejected run leaves
	// -out untouched.
	src, err := ingest.NewRawFileSourceOf[F](paths, dims)
	if err != nil {
		return err
	}
	cw, err := out.create()
	if err != nil {
		return err
	}
	worst, rounds := obs.Default().Gauge("core.target_nrmse_max"), obs.Default().Counter("core.verify_round_trips_total")
	worst.Set(0)
	rounds0 := rounds.Load()
	st, err := streamOf(ctx, ingest.Config{Opts: opts, Workers: 1}, src, len(paths), cw, out.atomic)
	if err != nil {
		return err
	}
	rawBytes := int64(st.SlicesIn) * int64(dims.Len()) * 4
	target := ""
	if opts.TargetNRMSE > 0 {
		target = fmt.Sprintf(" at NRMSE <= %g (worst window %.4e, %d verify round trips)",
			opts.TargetNRMSE, worst.Load(), rounds.Load()-rounds0)
	}
	fmt.Printf("compressed %d slices (%s raw) into %d windows%s, %s encoded (%.1f:1 effective)\n",
		st.SlicesIn, fmtBytes(rawBytes), st.WindowsAppended, target, fmtBytes(st.BytesEncoded),
		float64(rawBytes)/float64(st.BytesEncoded))
	return nil
}

// streamOf streams slices slices from src through an engine built from
// cfg under ctx into cw, and closes it. A failed run still closes a plain
// container, so the journal ends in a footer over every durably appended
// window; an atomic one is left at its staging path, so its final path
// only ever holds a complete container.
func streamOf[F num.Float](ctx context.Context, cfg ingest.Config, src ingest.SourceOf[F], slices int,
	cw *storage.ContainerWriter, atomic bool) (ingest.Stats, error) {
	var st ingest.Stats
	eng, err := ingest.NewEngineOf[F](cfg, src.Dims(), cw)
	if err == nil {
		st, err = eng.RunCtx(ctx, src, slices)
	}
	if err != nil && atomic {
		return st, err
	}
	return st, errors.Join(err, cw.Close())
}

// dumpTrace ends root and writes its span tree as indented JSON. A nil
// root (tracing off) is a no-op.
func dumpTrace(root *obs.Span, path string) error {
	if root == nil {
		return nil
	}
	root.End()
	data, err := json.MarshalIndent(root.Tree(), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote trace to %s\n", path)
	return nil
}

// parseROI parses the -roi flag: six comma-separated grid coordinates
// x0,y0,z0,x1,y1,z1 forming a half-open box, paired with its -roi-max-err
// bound.
func parseROI(s string, bound float64) (*core.ROIBounds, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 6 {
		return nil, fmt.Errorf("-roi must be x0,y0,z0,x1,y1,z1, got %q", s)
	}
	var vals [6]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad ROI coordinate %q", p)
		}
		vals[i] = v
	}
	if bound <= 0 {
		return nil, fmt.Errorf("-roi requires -roi-max-err > 0")
	}
	roi := &core.ROIBounds{
		X0: vals[0], Y0: vals[1], Z0: vals[2],
		X1: vals[3], Y1: vals[4], Z1: vals[5],
		MaxErr: bound,
	}
	if !roi.Valid() {
		return nil, fmt.Errorf("ROI box %q is empty or has a negative origin", s)
	}
	return roi, nil
}

// parseLadder parses the -ladder flag: comma-separated target ratios.
func parseLadder(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	ladder := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad ladder rung %q", p)
		}
		ladder = append(ladder, v)
	}
	return ladder, nil
}

// makeSourceOf builds the streaming source for -source at the pipeline's
// sample precision. ghost and cloverleaf evolve real solver state, so
// their grids are cubic; tornado and synth are analytic and sample any
// dims.
func makeSourceOf[F num.Float](name string, dims grid.Dims, dt float64, seed int64) (ingest.SourceOf[F], error) {
	cubic := func() (int, error) {
		if dims.Nx != dims.Ny || dims.Ny != dims.Nz {
			return 0, fmt.Errorf("-source %s needs a cubic grid, got %v", name, dims)
		}
		return dims.Nx, nil
	}
	switch name {
	case "ghost":
		n, err := cubic()
		if err != nil {
			return nil, err
		}
		cfg := ghost.DefaultConfig(n)
		cfg.Seed = seed
		s, err := ghost.NewSolver(cfg)
		if err != nil {
			return nil, err
		}
		if err := s.EnableScalar(ghost.ScalarConfig{Kappa: cfg.Nu, MeanGradient: 1}); err != nil {
			return nil, err
		}
		return ingest.NewGhostSourceOf[F](s)
	case "cloverleaf", "clover":
		n, err := cubic()
		if err != nil {
			return nil, err
		}
		s, err := cloverleaf.NewSolver(cloverleaf.DefaultConfig(n))
		if err != nil {
			return nil, err
		}
		return ingest.NewCloverleafSourceOf[F](s), nil
	case "tornado":
		m, err := tornado.NewModel(tornado.DefaultConfig(dims.Nx, dims.Ny, dims.Nz))
		if err != nil {
			return nil, err
		}
		return ingest.NewTornadoSourceOf[F](m, dt)
	case "synth":
		cfg := synth.DefaultConfig()
		cfg.Seed = seed
		f, err := synth.NewField(cfg)
		if err != nil {
			return nil, err
		}
		return ingest.NewSynthSourceOf[F](f, dims, dt)
	}
	return nil, fmt.Errorf("unknown source %q (ghost, cloverleaf, tornado, synth)", name)
}

func runIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	source := fs.String("source", "synth", "simulation source: ghost, cloverleaf, tornado, or synth")
	dimsStr := fs.String("dims", "", "grid dims NXxNYxNZ (required)")
	slices := fs.Int("slices", 0, "total time slices to ingest (required)")
	window := fs.Int("window", 20, "window size (4D mode)")
	mode := fs.String("mode", "4d", "3d or 4d")
	ratio := fs.Float64("ratio", 32, "base target compression ratio n:1")
	precisionName := fs.String("precision", "f64", "pipeline sample precision: f64 (reference) or f32 (half the bytes end to end)")
	progressive := fs.Bool("progressive", false, "store windows level-major (v4); under -policy degrade the engine sheds detail levels before recompressing")
	workers := fs.Int("workers", 0, "compression pipeline width (0 = GOMAXPROCS)")
	policy := fs.String("policy", "stall", "backpressure policy: stall, degrade, or shed")
	memBudget := fs.Int64("mem-budget", 0, "bytes of raw windows allowed in flight (0 = unbounded)")
	memLimit := fs.Int64("mem-limit", 0, "soft limit on total process memory, via the Go runtime (bytes; 0 = runtime default)")
	deadline := fs.Duration("deadline", 30*time.Second, "how long backpressure may block before the run fails")
	retryEvery := fs.Duration("retry-every", 20*time.Millisecond, "pause between append retries under backpressure")
	ladderStr := fs.String("ladder", "", "comma-separated coarser ratios for -policy degrade, e.g. 64,128")
	stageDir := fs.String("stage", "", "stage raw slices through a burst buffer in this directory")
	dt := fs.Float64("dt", 1, "simulation time per slice (tornado and synth sources)")
	seed := fs.Int64("seed", 1, "random seed where the source takes one")
	fsyncPolicy := fs.String("fsync", "never", "fsync policy: never, window (after every appended window), or close")
	out := fs.String("out", "", "output container path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dimsStr == "" || *out == "" {
		return fmt.Errorf("ingest requires -dims and -out")
	}
	if *slices < 1 {
		return fmt.Errorf("ingest requires -slices >= 1")
	}
	dims, err := grid.ParseDims(*dimsStr)
	if err != nil {
		return err
	}
	pol, err := ingest.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	ladder, err := parseLadder(*ladderStr)
	if err != nil {
		return err
	}
	syncPol, err := storage.ParseSyncPolicy(*fsyncPolicy)
	if err != nil {
		return err
	}
	if *memLimit > 0 {
		// An in-situ process shares its node with the solver's neighbors:
		// the admission gate bounds the raw-window ledger, and this bounds
		// everything else (GC headroom, encode buffers, solver state) so
		// peak RSS is set by the limit, not the run length.
		debug.SetMemoryLimit(*memLimit)
	}
	opts := core.DefaultOptions()
	opts.WindowSize = *window
	opts.Ratio = *ratio
	opts.Progressive = *progressive
	if opts.Mode, err = core.ParseMode(*mode); err != nil {
		return err
	}
	if opts.Precision, err = core.ParsePrecision(*precisionName); err != nil {
		return err
	}
	cfg := ingest.Config{
		Opts:       opts,
		Workers:    *workers,
		MemBudget:  *memBudget,
		Policy:     pol,
		Deadline:   *deadline,
		RetryEvery: *retryEvery,
		Ladder:     ladder,
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	run := ingestOf[float64]
	if opts.Precision == core.Float32 {
		run = ingestOf[float32]
	}
	return run(cfg, dims, strings.ToLower(*source), *dt, *seed, *slices, *stageDir, *out, syncPol)
}

// ingestOf builds the source at precision F, then the staging tier, and
// only then creates out and streams the run into it, so a rejected source
// leaves an existing container untouched.
func ingestOf[F num.Float](cfg ingest.Config, dims grid.Dims, source string, dt float64, seed int64,
	slices int, stageDir, out string, syncPol storage.SyncPolicy) error {
	src, err := makeSourceOf[F](source, dims, dt, seed)
	if err != nil {
		return err
	}
	if stageDir != "" {
		if err := os.MkdirAll(stageDir, 0o755); err != nil {
			return err
		}
		cfg.Stage, err = storage.NewBurstBuffer(stageDir, storage.DefaultModel(), dims)
		if err != nil {
			return err
		}
	}
	cw, err := container{path: out, sync: syncPol}.create()
	if err != nil {
		return err
	}
	st, err := streamOf(context.Background(), cfg, src, slices, cw, false)
	rawBytes := int64(st.SlicesIn) * int64(dims.Len()) * int64(cfg.Opts.Precision.SampleBytes())
	fmt.Printf("ingested %d slices (%s raw): %d windows appended, %d shed (%d slices lost, journaled as gaps)\n",
		st.SlicesIn, fmtBytes(rawBytes), st.WindowsAppended, st.WindowsShed, st.SlicesShed)
	if st.Backpressure > 0 || st.DegradeSteps > 0 || st.LevelsShed > 0 {
		fmt.Printf("  backpressure: %d events, %d append retries, %d detail levels shed, %d degrade steps (final ratio %g:1), peak %s raw in flight\n",
			st.Backpressure, st.AppendRetries, st.LevelsShed, st.DegradeSteps, st.FinalRatio, fmtBytes(st.PeakInFlightBytes))
	}
	if err != nil {
		return fmt.Errorf("ingest aborted: %w (the journal at %s keeps every durably appended window; recover with stfsck)", err, out)
	}
	return nil
}

func runDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("in", "", "input container (required)")
	prefix := fs.String("prefix", "slice", "output path prefix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("decompress requires -in")
	}
	r, err := storage.OpenContainer(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	n, skipped := 0, 0
	for i := 0; i < r.NumWindows(); i++ {
		wi, err := r.WindowInfo(i)
		if err != nil {
			return err
		}
		if wi.Gap != nil {
			// A shed window: no data to write, but the slice numbering must
			// keep its place so every later slice keeps its global index.
			fmt.Printf("  window %d: gap (%s), skipping slices %04d-%04d\n",
				i, wi.Gap.Reason, n, n+wi.Gap.Slices-1)
			n += wi.Gap.Slices
			skipped += wi.Gap.Slices
			continue
		}
		cwin, err := r.ReadWindow(i)
		if err != nil {
			return err
		}
		// Raw output files are float32 either way; float32 windows skip the
		// widen entirely by reconstructing at their native precision.
		write := writeWindow[float64]
		if cwin.Precision == core.Float32 {
			write = writeWindow[float32]
		}
		written, err := write(cwin, *prefix, n)
		if err != nil {
			return err
		}
		n += written
	}
	fmt.Printf("wrote %d slices with prefix %s\n", n-skipped, *prefix)
	if skipped > 0 {
		fmt.Printf("  %d slices fall in ingest gaps; their indices are reserved, no files written\n", skipped)
	}
	return nil
}

// writeWindow reconstructs cw at precision F and writes slice i to
// prefix%04d.raw numbered from first+i, returning the slice count.
func writeWindow[F num.Float](cw *core.CompressedWindow, prefix string, first int) (int, error) {
	win, err := core.Reconstruct[F](context.Background(), cw, core.Query{MaxLevel: core.All, Slice: core.All})
	if err != nil {
		return 0, err
	}
	for i, s := range win.Slices {
		if err := s.SaveRawFile(fmt.Sprintf("%s%04d.raw", prefix, first+i)); err != nil {
			return 0, err
		}
	}
	return win.Len(), nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "input container (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("info requires -in")
	}
	r, err := storage.OpenContainer(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	fmt.Printf("%s: %d windows\n", *in, r.NumWindows())
	for i := 0; i < r.NumWindows(); i++ {
		wi, err := r.WindowInfo(i)
		if err != nil {
			return err
		}
		if wi.Gap != nil {
			fmt.Printf("  window %d: gap — %d slices shed at ingest (%s), t=[%g, %g]\n",
				i, wi.Gap.Slices, wi.Gap.Reason, wi.Gap.T0, wi.Gap.T1)
			continue
		}
		cwin, err := r.ReadWindow(i)
		if err != nil {
			return err
		}
		sz, err := r.WindowSizeBytes(i)
		if err != nil {
			return err
		}
		layout := ""
		if cwin.Progressive() {
			layout = fmt.Sprintf(", progressive (%d level groups)", len(cwin.Groups))
		}
		fmt.Printf("  window %d: %v x %d slices, %v, %s, ratio %g:1, codec %s, kernels %v/%v, levels %d/%d%s, %s\n",
			i, cwin.Dims, cwin.NumSlices(), cwin.Opts.Mode, cwin.Precision, cwin.Opts.Ratio,
			cwin.Codec().Name(), cwin.Opts.SpatialKernel, cwin.Opts.TemporalKernel,
			cwin.SpatialLevels, cwin.TemporalLevels, layout, fmtBytes(sz))
	}
	return nil
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fGB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fMB", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fKB", float64(n)/1e3)
	}
	return fmt.Sprintf("%dB", n)
}
