package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/obs"
	"stwave/internal/scratch"
	"stwave/internal/storage"
)

// Backpressure design. The engine keeps a byte ledger of every window it
// holds in memory: the one being filled from the solver plus every one
// submitted to the compression pipeline whose append has not completed.
// Compression transforms the window's own buffers in place (no working
// copy), and since selection only reads them they keep the window's
// coefficients until it is durably appended — that is what lets the
// degrade policy re-select and re-encode a window at a coarser ratio,
// with no second transform, when the append itself fails. The buffers are
// then recycled through the scratch arena, so steady-state memory is the
// budget, not the run length. When admitting the next window would exceed the budget, or when
// an append fails after retries, the configured policy decides what gives:
//
//   - stall:   the solver blocks until in-flight windows drain (or the
//     append starts succeeding again), bounded by Deadline.
//   - degrade: the target ratio steps down the configured ladder — later
//     windows compress coarser, and a window whose append hit ENOSPC is
//     recompressed at the coarser rung and retried. Every window records
//     its own ratio in its header, so a degraded run is self-describing.
//   - shed:    whole windows are dropped, the solver skips ahead, and a
//     journaled gap marker holds the window's place so the timeline of
//     every later window is unshifted.
//
// All container writes (windows and gap markers) flow through the
// pipeline's single delivery goroutine in submission order, so the
// journal is always a prefix of the true timeline — the crash matrix
// asserts exactly that.

// ErrDeadline reports that a stall (or degrade wait) exceeded
// Config.Deadline without the backlog draining.
var ErrDeadline = errors.New("ingest: backpressure deadline exceeded")

// ErrLadderExhausted reports that the degrade policy ran out of coarser
// rungs while storage still could not accept the window.
var ErrLadderExhausted = errors.New("ingest: degrade ladder exhausted")

// Policy selects what yields when storage cannot keep up with the solver.
type Policy int

const (
	// PolicyStall blocks the solver until storage drains.
	PolicyStall Policy = iota
	// PolicyDegrade steps the target ratio down a configured ladder.
	PolicyDegrade
	// PolicyShed drops whole windows behind journaled gap markers.
	PolicyShed
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyStall:
		return "stall"
	case PolicyDegrade:
		return "degrade"
	case PolicyShed:
		return "shed"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses the -policy flag spellings.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "stall":
		return PolicyStall, nil
	case "degrade":
		return PolicyDegrade, nil
	case "shed":
		return PolicyShed, nil
	}
	return 0, fmt.Errorf("ingest: unknown policy %q (want stall, degrade, or shed)", s)
}

// Config tunes an Engine.
type Config struct {
	// Opts is the compression configuration; Opts.Ratio is the base
	// (finest) target ratio, Opts.WindowSize the slices per window.
	Opts core.Options
	// Workers is the compression pipeline width (<= 0 means 1).
	Workers int
	// MemBudget caps the raw bytes of windows held in memory — filling,
	// compressing, and awaiting append. <= 0 disables the gate.
	MemBudget int64
	// Policy picks the backpressure behaviour; see the constants.
	Policy Policy
	// Deadline bounds how long a stall (or degrade wait) may block before
	// the run fails with ErrDeadline. <= 0 means 30s.
	Deadline time.Duration
	// RetryEvery is the pause between append retries while stalled on a
	// failed write. <= 0 means 20ms.
	RetryEvery time.Duration
	// Ladder lists the degrade rungs: target ratios coarser than
	// Opts.Ratio, in increasing order. Required for PolicyDegrade.
	Ladder []float64
	// Stage, when non-nil, stages every raw slice in the burst buffer as
	// it is produced and drops it once its window is durable — the
	// paper's Figure 1 SSD tier, wired behind the admission gate.
	Stage *storage.BurstBuffer
}

// Stats summarizes a Run.
type Stats struct {
	SlicesIn          int     // slices produced by the source (incl. shed)
	WindowsAppended   int     // compressed windows durably appended
	WindowsShed       int     // gap markers appended
	SlicesShed        int     // slices covered by gap markers
	DegradeSteps      int     // ladder rungs stepped down
	LevelsShed        int     // finest detail levels dropped from progressive windows before any rung
	Backpressure      int     // admission blocks + append-failure events
	AppendRetries     int     // failed appends retried by policy
	FinalRatio        float64 // target ratio in effect at the end
	PeakInFlightBytes int64   // high-water mark of the raw-byte ledger
}

// windowJobOf is the per-window bookkeeping the delivery side needs: the
// retained window (its coefficients after compression, or its raw
// samples under MaxErr, for degrade recompression and buffer recycling),
// its ledger charge, which rung compressed it, and any staged slice ids.
type windowJobOf[F num.Float] struct {
	win      *grid.WindowOf[F]
	gap      *core.GapMarker // non-nil: journal a gap instead of a window
	rung     int
	rawBytes int64
	stageIDs []int
}

// Engine drives one streaming double-precision ingest run. Create with
// NewEngine, call Run once.
type Engine = EngineOf[float64]

// Engine32 is the single-precision ingest engine: window buffers hold
// float32 samples (half the raw-byte ledger per slice, so the same
// MemBudget admits twice the slices) and compression runs the native
// float32 pipeline down to the container bytes.
type Engine32 = EngineOf[float32]

// EngineOf is the precision-generic ingest engine behind Engine and
// Engine32.
type EngineOf[F num.Float] struct {
	cfg     Config
	w       *storage.ContainerWriter
	comps   []*core.Compressor // rung 0 = base ratio, then the ladder
	ratios  []float64
	winSize int
	dims    grid.Dims

	mu       sync.Mutex
	rung     int
	inFlight int64
	jobs     map[int]*windowJobOf[F]
	stats    Stats
	notify   chan struct{}
}

// NewEngine builds an engine appending to w. The writer stays owned by
// the caller: on success close it to finalize the footer; after a failed
// run the file is still a valid journal for RecoverContainer — that is
// the crash-consistent drain.
func NewEngine(cfg Config, dims grid.Dims, w *storage.ContainerWriter) (*Engine, error) {
	cfg.Opts.Precision = core.Float64
	return newEngineOf[float64](cfg, dims, w)
}

// NewEngine32 builds a single-precision engine appending to w. The
// error-bounded mode (MaxErr) is defined on the float64 oracle and is
// rejected.
func NewEngine32(cfg Config, dims grid.Dims, w *storage.ContainerWriter) (*Engine32, error) {
	cfg.Opts.Precision = core.Float32
	return newEngineOf[float32](cfg, dims, w)
}

func newEngineOf[F num.Float](cfg Config, dims grid.Dims, w *storage.ContainerWriter) (*EngineOf[F], error) {
	if w == nil {
		return nil, fmt.Errorf("ingest: nil container writer")
	}
	if !dims.Valid() {
		return nil, fmt.Errorf("ingest: invalid dims %v", dims)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 20 * time.Millisecond
	}
	ratios := append([]float64{cfg.Opts.Ratio}, cfg.Ladder...)
	for i := 1; i < len(ratios); i++ {
		if ratios[i] <= ratios[i-1] {
			return nil, fmt.Errorf("ingest: ladder rung %g does not coarsen previous ratio %g", ratios[i], ratios[i-1])
		}
	}
	if cfg.Policy == PolicyDegrade && len(cfg.Ladder) == 0 {
		return nil, fmt.Errorf("ingest: degrade policy needs a ratio ladder")
	}
	comps := make([]*core.Compressor, len(ratios))
	for i, r := range ratios {
		opts := cfg.Opts
		opts.Ratio = r
		c, err := core.New(opts)
		if err != nil {
			return nil, fmt.Errorf("ingest: rung %d (ratio %g): %w", i, r, err)
		}
		comps[i] = c
	}
	winSize := cfg.Opts.WindowSize
	if cfg.Opts.Mode == core.Spatial3D {
		winSize = 1
	}
	if winSize < 1 {
		return nil, fmt.Errorf("ingest: window size %d must be >= 1", winSize)
	}
	return &EngineOf[F]{
		cfg:     cfg,
		w:       w,
		comps:   comps,
		ratios:  ratios,
		winSize: winSize,
		dims:    dims,
		jobs:    make(map[int]*windowJobOf[F]),
		notify:  make(chan struct{}, 1),
	}, nil
}

// sliceBytes is the in-memory cost of one raw slice at the engine's
// sample precision — the float32 engine charges half the ledger bytes.
func (e *EngineOf[F]) sliceBytes() int64 {
	return int64(e.dims.Len()) * int64(num.SampleBytes[F]())
}

// wake nudges a producer blocked in the admission gate.
func (e *EngineOf[F]) wake() {
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

// countBackpressure records one policy activation.
func (e *EngineOf[F]) countBackpressure(p Policy) {
	obs.Default().Counter("ingest.backpressure_events_total." + p.String()).Add(1)
	e.mu.Lock()
	e.stats.Backpressure++
	e.mu.Unlock()
}

// charge adds bytes to the in-flight ledger and updates the gauges.
func (e *EngineOf[F]) charge(n int64) {
	e.mu.Lock()
	e.inFlight += n
	if e.inFlight > e.stats.PeakInFlightBytes {
		e.stats.PeakInFlightBytes = e.inFlight
	}
	cur := e.inFlight
	depth := len(e.jobs)
	e.mu.Unlock()
	obs.Default().Gauge("ingest.inflight_bytes").Set(float64(cur))
	obs.Default().Gauge("ingest.queue_depth_windows").Set(float64(depth))
}

// Run streams totalSlices slices from src through compression into the
// container. It returns once every produced window is durably appended
// (or shed behind a gap marker), or on the first unrecoverable error — in
// which case the journal still ends at a record boundary with everything
// previously acknowledged intact.
func (e *EngineOf[F]) Run(src SourceOf[F], totalSlices int) (Stats, error) {
	if src.Dims() != e.dims {
		return e.snapshot(), fmt.Errorf("ingest: source dims %v != engine dims %v", src.Dims(), e.dims)
	}
	if totalSlices <= 0 {
		return e.snapshot(), fmt.Errorf("ingest: total slices %d must be positive", totalSlices)
	}
	pipe, err := core.NewPipeline(e.cfg.Workers, e.deliver)
	if err != nil {
		return e.snapshot(), err
	}
	nextID := 0
	runErr := func() error {
		for remaining := totalSlices; remaining > 0; {
			n := min(e.winSize, remaining)
			admitted, err := e.admit(int64(n)*e.sliceBytes(), pipe)
			if err != nil {
				return err
			}
			if !admitted {
				// Shed the window before it is ever sampled: the solver
				// steps past it and a gap marker holds its place.
				if err := e.shedWindow(pipe, &nextID, src, n); err != nil {
					return err
				}
				remaining -= n
				continue
			}
			if err := e.produceWindow(pipe, &nextID, src, n); err != nil {
				return err
			}
			remaining -= n
		}
		return nil
	}()
	closeErr := pipe.Close()
	e.releaseLeftovers()
	if runErr == nil {
		runErr = closeErr
	}
	return e.snapshot(), runErr
}

// admit blocks until charging need bytes fits the budget, applying the
// backpressure policy. Returns admitted=false when the policy decided to
// shed the window instead.
func (e *EngineOf[F]) admit(need int64, pipe *core.Pipeline) (bool, error) {
	if e.cfg.MemBudget <= 0 {
		e.charge(need)
		return true, nil
	}
	deadline := time.Now().Add(e.cfg.Deadline)
	blocked := false
	for {
		if err := pipe.Err(); err != nil {
			return false, err
		}
		e.mu.Lock()
		fits := e.inFlight+need <= e.cfg.MemBudget || e.inFlight == 0
		e.mu.Unlock()
		if fits {
			// inFlight == 0 admits a window larger than the whole budget:
			// an undersized budget must degrade throughput, not wedge.
			e.charge(need)
			return true, nil
		}
		if !blocked {
			blocked = true
			e.countBackpressure(e.cfg.Policy)
			switch e.cfg.Policy {
			case PolicyShed:
				return false, nil
			case PolicyDegrade:
				// Later windows compress coarser so the backlog drains
				// faster; the wait below is still what frees the bytes.
				e.stepRung()
			}
		}
		wait := min(time.Until(deadline), e.cfg.RetryEvery)
		if wait <= 0 {
			return false, fmt.Errorf("ingest: admission blocked for %v at %d in-flight bytes: %w",
				e.cfg.Deadline, e.loadInFlight(), ErrDeadline)
		}
		select {
		case <-e.notify:
		case <-time.After(wait):
		}
	}
}

func (e *EngineOf[F]) loadInFlight() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inFlight
}

// stepRung moves the ladder down one rung (coarser) if one remains.
func (e *EngineOf[F]) stepRung() {
	e.mu.Lock()
	if e.rung < len(e.comps)-1 {
		e.rung++
		e.stats.DegradeSteps++
		obs.Default().Counter("ingest.degrade_steps_total").Add(1)
	}
	e.mu.Unlock()
}

// produceWindow fills one window from the source (recycled buffers),
// optionally stages its slices, and submits it for compression.
func (e *EngineOf[F]) produceWindow(pipe *core.Pipeline, nextID *int, src SourceOf[F], n int) error {
	start := time.Now()
	win := grid.NewWindowOf[F](e.dims)
	job := &windowJobOf[F]{win: win, rawBytes: int64(n) * e.sliceBytes()}
	for i := 0; i < n; i++ {
		f, err := grid.FromDataOf(e.dims.Nx, e.dims.Ny, e.dims.Nz, scratch.FloatsOf[F](e.dims.Len()))
		if err != nil {
			e.releaseJob(job)
			return err
		}
		t, err := src.Next(f)
		if err != nil {
			e.releaseJob(job)
			return fmt.Errorf("ingest: source: %w", err)
		}
		if err := win.Append(f, t); err != nil {
			e.releaseJob(job)
			return err
		}
		if e.cfg.Stage != nil {
			id, err := storage.PutSliceOf(e.cfg.Stage, f)
			if err != nil {
				e.releaseJob(job)
				return fmt.Errorf("ingest: staging slice: %w", err)
			}
			job.stageIDs = append(job.stageIDs, id)
		}
		e.mu.Lock()
		e.stats.SlicesIn++
		e.mu.Unlock()
		obs.Default().Counter("ingest.slices_in_total").Add(1)
	}
	obs.Default().Histogram("ingest.solve_seconds").ObserveSince(start)

	e.mu.Lock()
	job.rung = e.rung
	comp := e.comps[job.rung]
	e.jobs[*nextID] = job
	e.mu.Unlock()
	*nextID++
	_, err := pipe.Submit(func() (*core.CompressedWindow, error) {
		cstart := time.Now()
		compress := core.CompressWindowInPlaceOf[F]
		if e.cfg.Opts.MaxErr > 0 {
			compress = core.CompressWindowOf[F] // verifies against the raw samples, so keeps them
		}
		cw, err := compress(context.Background(), comp, win)
		if err == nil {
			obs.Default().Histogram("ingest.compress_seconds").ObserveSince(cstart)
		}
		return cw, err
	})
	return err
}

// shedWindow steps the solver past n slices and journals a gap marker in
// their place, routed through the pipeline so it lands in timeline order.
func (e *EngineOf[F]) shedWindow(pipe *core.Pipeline, nextID *int, src SourceOf[F], n int) error {
	var t0, t1 float64
	for i := 0; i < n; i++ {
		t, err := src.Skip()
		if err != nil {
			return fmt.Errorf("ingest: source skip: %w", err)
		}
		if i == 0 {
			t0 = t
		}
		t1 = t
	}
	e.mu.Lock()
	e.stats.SlicesIn += n
	e.mu.Unlock()
	obs.Default().Counter("ingest.slices_in_total").Add(int64(n))
	g := core.GapMarker{Slices: n, T0: t0, T1: t1, Reason: core.GapShed}
	e.mu.Lock()
	e.jobs[*nextID] = &windowJobOf[F]{gap: &g}
	e.mu.Unlock()
	*nextID++
	_, err := pipe.Submit(func() (*core.CompressedWindow, error) { return nil, nil })
	return err
}

// deliver is the pipeline sink: it journals one entry (window or gap) in
// submission order, applying the backpressure policy to append failures,
// then releases the window's memory and wakes the producer.
func (e *EngineOf[F]) deliver(id int, cw *core.CompressedWindow) error {
	e.mu.Lock()
	job := e.jobs[id]
	e.mu.Unlock()
	if job == nil {
		return fmt.Errorf("ingest: no bookkeeping for window %d", id)
	}
	var err error
	if job.gap != nil {
		err = e.appendGap(*job.gap)
	} else {
		err = e.appendWindow(job, cw)
	}
	if err != nil {
		return err
	}
	e.mu.Lock()
	delete(e.jobs, id)
	e.mu.Unlock()
	e.releaseJob(job)
	e.charge(-job.rawBytes)
	e.wake()
	return nil
}

// appendWindow appends cw, driving the policy through append failures:
// stall retries the same bytes until the deadline, degrade re-encodes the
// retained window at coarser rungs, shed gives the window up and journals
// a write-failed gap in its place.
func (e *EngineOf[F]) appendWindow(job *windowJobOf[F], cw *core.CompressedWindow) error {
	start := time.Now()
	deadline := time.Now().Add(e.cfg.Deadline)
	rung := job.rung
	counted := false
	for {
		_, err := e.w.Append(cw)
		if err == nil {
			obs.Default().Histogram("ingest.append_seconds").ObserveSince(start)
			obs.Default().Counter("ingest.windows_appended_total").Add(1)
			e.mu.Lock()
			e.stats.WindowsAppended++
			e.mu.Unlock()
			return nil
		}
		if !counted {
			counted = true
			e.countBackpressure(e.cfg.Policy)
		}
		// Re-arm the writer; if even the journal tail cannot be trimmed
		// there is no safe way to continue under any policy.
		if cerr := e.w.ClearError(); cerr != nil {
			return cerr
		}
		e.mu.Lock()
		e.stats.AppendRetries++
		e.mu.Unlock()
		switch e.cfg.Policy {
		case PolicyShed:
			g := core.GapMarker{
				Slices: cw.NumSlices(),
				T0:     cw.Times[0],
				T1:     cw.Times[len(cw.Times)-1],
				Reason: core.GapWriteFailed,
			}
			if gerr := e.appendGap(g); gerr != nil {
				return fmt.Errorf("ingest: append failed (%v) and gap marker failed: %w", err, gerr)
			}
			return nil
		case PolicyDegrade:
			// A progressive window has a free degrade step before any
			// recompression rung: dropping its finest retained detail level
			// shrinks the payload without touching the retained window
			// (the level-major layout makes the finest group a suffix).
			// Only when the window is down to its approximation group does
			// the ladder pay for a coarser re-encode.
			if dropped, ok := cw.DropFinestLevel(); ok {
				cw = dropped
				e.mu.Lock()
				e.stats.LevelsShed++
				e.mu.Unlock()
				obs.Default().Counter("ingest.levels_shed_total").Add(1)
				continue
			}
			if rung >= len(e.comps)-1 {
				return fmt.Errorf("ingest: append failed at coarsest rung (ratio %g): %v: %w",
					e.ratios[rung], err, ErrLadderExhausted)
			}
			rung++
			job.rung = rung
			e.mu.Lock()
			if e.rung < rung {
				// Later windows start coarse too instead of rediscovering
				// the failure one window at a time.
				e.rung = rung
			}
			e.stats.DegradeSteps++
			e.mu.Unlock()
			obs.Default().Counter("ingest.degrade_steps_total").Add(1)
			recompress := core.RecompressCoefficientsOf[F]
			if e.cfg.Opts.MaxErr > 0 {
				recompress = core.CompressWindowOf[F]
			}
			recompressed, rerr := recompress(context.Background(), e.comps[rung], job.win)
			if rerr != nil {
				return rerr
			}
			cw = recompressed
		case PolicyStall:
			if time.Now().After(deadline) {
				return fmt.Errorf("ingest: append retries exhausted after %v: %v: %w", e.cfg.Deadline, err, ErrDeadline)
			}
			time.Sleep(min(e.cfg.RetryEvery, time.Until(deadline)))
		}
	}
}

// appendGap journals one gap marker, with the same deadline-bounded retry
// as a stalled window append — losing data AND the record of the loss is
// the one outcome every policy forbids.
func (e *EngineOf[F]) appendGap(g core.GapMarker) error {
	deadline := time.Now().Add(e.cfg.Deadline)
	for {
		_, err := e.w.AppendGap(g)
		if err == nil {
			obs.Default().Counter("ingest.windows_shed_total").Add(1)
			e.mu.Lock()
			e.stats.WindowsShed++
			e.stats.SlicesShed += g.Slices
			e.mu.Unlock()
			return nil
		}
		if cerr := e.w.ClearError(); cerr != nil {
			return cerr
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest: gap marker append: %v: %w", err, ErrDeadline)
		}
		e.mu.Lock()
		e.stats.AppendRetries++
		e.mu.Unlock()
		time.Sleep(min(e.cfg.RetryEvery, time.Until(deadline)))
	}
}

// releaseJob recycles a window's raw buffers and drops its staged slices.
func (e *EngineOf[F]) releaseJob(job *windowJobOf[F]) {
	if job.win != nil {
		for _, s := range job.win.Slices {
			scratch.PutFloatsOf(s.Data)
			s.Data = nil
		}
		job.win = nil
	}
	if e.cfg.Stage != nil {
		for _, id := range job.stageIDs {
			e.cfg.Stage.Drop(id) //stlint:ignore uncheckederr staged slices are a cache; a failed drop only leaves litter for the next orphan GC
		}
		job.stageIDs = nil
	}
}

// releaseLeftovers recycles every job the pipeline abandoned on error.
func (e *EngineOf[F]) releaseLeftovers() {
	e.mu.Lock()
	left := make([]*windowJobOf[F], 0, len(e.jobs))
	for id, job := range e.jobs {
		left = append(left, job)
		delete(e.jobs, id)
	}
	e.inFlight = 0
	e.mu.Unlock()
	for _, job := range left {
		e.releaseJob(job)
	}
	obs.Default().Gauge("ingest.inflight_bytes").Set(0)
	obs.Default().Gauge("ingest.queue_depth_windows").Set(0)
}

// snapshot copies the stats under the lock and stamps the final ratio.
func (e *EngineOf[F]) snapshot() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.FinalRatio = e.ratios[e.rung]
	return s
}
