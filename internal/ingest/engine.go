package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/obs"
	"stwave/internal/par"
	"stwave/internal/scratch"
	"stwave/internal/storage"
)

// Backpressure design. The engine keeps a byte ledger of every window it
// holds in memory: the one being filled from the solver plus every one
// submitted to the ordered compress stage whose append has not completed.
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
// The ordered compress stage overlaps compression with the solve: workers
// compress window jobs concurrently, and every container write (windows
// and gap markers) flows through the stage's single delivery goroutine in
// submission order, so the journal is always a prefix of the true
// timeline — the crash matrix asserts exactly that.

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

// Config tunes an EngineOf.
type Config struct {
	// Opts is the compression configuration; Opts.Ratio is the base
	// (finest) target ratio, Opts.WindowSize the slices per window.
	Opts core.Options
	// Workers is the compress stage's worker count (<= 0 means 1). The
	// stage's jobs share Opts.Workers: each compresses with the inner
	// share of par.Split(Opts.Workers, Workers).
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
	BytesEncoded      int64   // encoded payload bytes of the appended windows
	WindowsShed       int     // gap markers appended
	SlicesShed        int     // slices covered by gap markers
	DegradeSteps      int     // ladder rungs stepped down
	LevelsShed        int     // finest detail levels dropped from progressive windows before any rung
	Backpressure      int     // admission blocks + append-failure events
	AppendRetries     int     // failed appends retried by policy
	FinalRatio        float64 // target ratio in effect at the end
	PeakInFlightBytes int64   // high-water mark of the raw-byte ledger
}

// windowJobOf is one entry of the ordered compress stage, carrying
// everything its delivery needs: the retained window (its coefficients
// after compression, for degrade recompression and buffer recycling), the
// rung whose compressor compresses it, its ledger charge, any staged slice
// ids, and its result, published by closing done.
type windowJobOf[F num.Float] struct {
	win      *grid.WindowOf[F]
	gap      *core.GapMarker // non-nil: journal a gap instead of a window
	rung     int
	rawBytes int64
	stageIDs []int
	cw       *core.CompressedWindow
	err      error
	done     chan struct{}
}

// stageOf is the ordered compress stage of one Run. Workers compress the
// jobs taken from work; one delivery goroutine takes the same jobs from
// order in submission order, waits on each job's done, and journals it.
// A gap job enters order already done and never reaches work. The first
// error, which only delivery records, sticks: the producer sees it at its
// next submit, workers stop compressing, and delivery keeps draining but
// journals nothing, so the journal never runs past a hole.
type stageOf[F num.Float] struct {
	ctx         context.Context // compressions and appends run under it
	work, order chan *windowJobOf[F]
	err         atomic.Pointer[error]
	running     sync.WaitGroup
	mu          sync.Mutex
	queued      int // submitted, not yet delivered
}

// track adds d to the count of submitted, undelivered jobs and sets the
// queue-depth gauge from it under one lock, so a late Set from the
// producer can never overwrite a newer count from delivery.
func (s *stageOf[F]) track(d int) {
	s.mu.Lock()
	s.queued += d
	obs.Default().Gauge("ingest.queue_depth_windows").Set(float64(s.queued))
	s.mu.Unlock()
}

// Err returns the sticky first error, or nil while the stage is healthy.
func (s *stageOf[F]) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

// submit queues job for delivery and, unless it is already done, for a
// worker. It blocks while either queue is full; workers never wait on
// delivery, so the wait is bounded by in-flight work.
func (s *stageOf[F]) submit(job *windowJobOf[F]) error {
	if err := s.Err(); err != nil {
		return err
	}
	s.track(1)
	s.order <- job
	if job.gap == nil {
		s.work <- job
	}
	return nil
}

// finish stops accepting jobs, waits for every worker and the delivery
// goroutine to exit, and returns the sticky error.
func (s *stageOf[F]) finish() error {
	close(s.work)
	close(s.order)
	s.running.Wait()
	return s.Err()
}

// EngineOf drives one streaming ingest run at sample precision F. Create
// with NewEngineOf, call Run once. At F = float32 window buffers hold
// float32 samples (half the raw-byte ledger per slice, so the same
// MemBudget admits twice the slices) and compression runs the native
// float32 pipeline down to the container bytes.
type EngineOf[F num.Float] struct {
	cfg   Config
	w     *storage.ContainerWriter
	comps []*core.Compressor // rung 0 = base ratio, then the ladder
	dims  grid.Dims

	mu       sync.Mutex
	rung     int
	inFlight int64
	stats    Stats
	notify   chan struct{}
}

// NewEngine is NewEngineOf[float64], kept for the benchmark harness.
func NewEngine(cfg Config, dims grid.Dims, w *storage.ContainerWriter) (*EngineOf[float64], error) {
	return NewEngineOf[float64](cfg, dims, w)
}

// NewEngine32 is NewEngineOf[float32], kept for the benchmark harness.
func NewEngine32(cfg Config, dims grid.Dims, w *storage.ContainerWriter) (*EngineOf[float32], error) {
	return NewEngineOf[float32](cfg, dims, w)
}

// Validate reports the first reason c cannot drive an engine: a ladder
// rung that does not coarsen the ratio before it, PolicyDegrade without a
// ladder or under a verified mode (MaxErr or TargetNRMSE: its rungs
// re-encode the retained coefficients at a coarser ratio, which these
// modes ignore and cannot verify without the raw samples), or a rung
// whose compression options core rejects. NewEngineOf
// runs the same checks; a command line runs Validate before it creates
// its output, so a rejected configuration never truncates a container.
func (c Config) Validate() error {
	_, err := c.compressors()
	return err
}

// compressors checks c and builds one compressor per rung: the base
// ratio, then the ladder.
func (c Config) compressors() ([]*core.Compressor, error) {
	ratios := append([]float64{c.Opts.Ratio}, c.Ladder...)
	for i := 1; i < len(ratios); i++ {
		if ratios[i] <= ratios[i-1] {
			return nil, fmt.Errorf("ingest: ladder rung %g does not coarsen previous ratio %g", ratios[i], ratios[i-1])
		}
	}
	if c.Policy == PolicyDegrade && len(c.Ladder) == 0 {
		return nil, fmt.Errorf("ingest: degrade policy needs a ratio ladder")
	}
	if c.Policy == PolicyDegrade && (c.Opts.MaxErr > 0 || c.Opts.TargetNRMSE > 0) {
		return nil, fmt.Errorf("ingest: degrade policy re-encodes from coefficients at a coarser ratio, which the verified modes (MaxErr, TargetNRMSE) cannot; use stall or shed")
	}
	comps := make([]*core.Compressor, len(ratios))
	for i, r := range ratios {
		opts := c.Opts
		opts.Ratio = r
		comp, err := core.New(opts)
		if err != nil {
			return nil, fmt.Errorf("ingest: rung %d (ratio %g): %w", i, r, err)
		}
		comps[i] = comp
	}
	return comps, nil
}

// NewEngineOf builds an engine appending to w at sample precision F,
// which overrides cfg.Opts.Precision; cfg must pass Validate. The writer
// stays owned by the caller: on success close it to finalize the footer;
// after a failed run the file is still a valid journal for
// RecoverContainerOpts — that is the crash-consistent drain.
func NewEngineOf[F num.Float](cfg Config, dims grid.Dims, w *storage.ContainerWriter) (*EngineOf[F], error) {
	cfg.Opts.Precision = core.Float64
	if num.Is32[F]() {
		cfg.Opts.Precision = core.Float32
	}
	if w == nil {
		return nil, fmt.Errorf("ingest: nil container writer")
	}
	if !dims.Valid() {
		return nil, fmt.Errorf("ingest: invalid dims %v", dims)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	// cfg.Workers jobs compress at once, so each rung's compressor gets
	// the inner share of the budget, never all of it.
	_, cfg.Opts.Workers = par.Split(cfg.Opts.Workers, cfg.Workers)
	comps, err := cfg.compressors()
	if err != nil {
		return nil, err
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 20 * time.Millisecond
	}
	return &EngineOf[F]{
		cfg:    cfg,
		w:      w,
		comps:  comps,
		dims:   dims,
		notify: make(chan struct{}, 1),
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

// charge adds bytes to the in-flight ledger and updates its gauge.
func (e *EngineOf[F]) charge(n int64) {
	e.mu.Lock()
	e.inFlight += n
	if e.inFlight > e.stats.PeakInFlightBytes {
		e.stats.PeakInFlightBytes = e.inFlight
	}
	cur := e.inFlight
	e.mu.Unlock()
	obs.Default().Gauge("ingest.inflight_bytes").Set(float64(cur))
}

// Run is RunCtx under a background context, kept for the benchmark
// harness.
func (e *EngineOf[F]) Run(src SourceOf[F], totalSlices int) (Stats, error) {
	return e.RunCtx(context.Background(), src, totalSlices)
}

// RunCtx streams totalSlices slices from src through compression into the
// container, in windows of Opts.SlicesPerWindow slices. It returns once
// every produced window is durably appended (or shed behind a gap
// marker), or on the first unrecoverable error — in which case the
// journal still ends at a record boundary with everything previously
// acknowledged intact. Window compression and appends run under ctx, so a
// trace it carries records their spans.
func (e *EngineOf[F]) RunCtx(ctx context.Context, src SourceOf[F], totalSlices int) (Stats, error) {
	if src.Dims() != e.dims {
		return e.snapshot(), fmt.Errorf("ingest: source dims %v != engine dims %v", src.Dims(), e.dims)
	}
	if totalSlices <= 0 {
		return e.snapshot(), fmt.Errorf("ingest: total slices %d must be positive", totalSlices)
	}
	s := e.newStage(ctx)
	winSize := e.cfg.Opts.SlicesPerWindow()
	runErr := func() error {
		for remaining := totalSlices; remaining > 0; {
			n := min(winSize, remaining)
			remaining -= n
			admitted, err := e.admit(int64(n)*e.sliceBytes(), s)
			if err != nil {
				return err
			}
			if !admitted {
				// Shed the window before it is ever sampled: the solver
				// steps past it and a gap marker holds its place.
				err = e.shedWindow(s, src, n)
			} else {
				err = e.produceWindow(s, src, n)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}()
	if err := s.finish(); runErr == nil {
		runErr = err
	}
	return e.snapshot(), runErr
}

// newStage builds the ordered compress stage and starts its workers and
// its delivery goroutine. work holds one queued job per worker so no
// worker idles between windows; order holds twice that, which bounds how
// many windows the producer runs ahead of delivery when no MemBudget is
// set.
func (e *EngineOf[F]) newStage(ctx context.Context) *stageOf[F] {
	s := &stageOf[F]{
		ctx:   ctx,
		work:  make(chan *windowJobOf[F], e.cfg.Workers),
		order: make(chan *windowJobOf[F], 2*e.cfg.Workers),
	}
	s.running.Add(e.cfg.Workers + 1)
	for range e.cfg.Workers {
		go func() {
			defer s.running.Done()
			for job := range s.work {
				e.compressJob(s, job)
			}
		}()
	}
	go func() {
		defer s.running.Done()
		e.deliverJobs(s)
	}()
	return s
}

// compressJob compresses one window job in place and publishes the
// result. Once the stage has failed the job is only marked done.
func (e *EngineOf[F]) compressJob(s *stageOf[F], job *windowJobOf[F]) {
	if s.Err() == nil {
		start := time.Now()
		job.cw, job.err = core.Compress(s.ctx, e.comps[job.rung], job.win, core.InPlace)
		if job.err == nil {
			obs.Default().Histogram("ingest.compress_seconds").ObserveSince(start)
		}
	}
	close(job.done)
}

// deliverJobs journals every job (window or gap) in submission order,
// applying the backpressure policy to append failures, then releases the
// job's memory and wakes the producer.
func (e *EngineOf[F]) deliverJobs(s *stageOf[F]) {
	for job := range s.order {
		<-job.done
		err := s.Err()
		if err == nil {
			switch {
			case job.err != nil:
				err = job.err
			case job.gap != nil:
				err = e.appendGap(*job.gap)
			default:
				err = e.appendWindow(s.ctx, job)
			}
			if err != nil {
				s.err.Store(&err)
			}
		}
		e.release(job, err == nil)
		s.track(-1)
	}
}

// admit blocks until charging need bytes fits the budget, applying the
// backpressure policy. Returns admitted=false when the policy decided to
// shed the window instead.
func (e *EngineOf[F]) admit(need int64, s *stageOf[F]) (bool, error) {
	if e.cfg.MemBudget <= 0 {
		e.charge(need)
		return true, nil
	}
	deadline := time.Now().Add(e.cfg.Deadline)
	blocked := false
	for {
		if err := s.Err(); err != nil {
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
// optionally stages its slices, and submits it for compression. A window
// that never reaches the stage is released here.
func (e *EngineOf[F]) produceWindow(s *stageOf[F], src SourceOf[F], n int) error {
	job := &windowJobOf[F]{
		win:      grid.NewWindowOf[F](e.dims),
		rawBytes: int64(n) * e.sliceBytes(),
		done:     make(chan struct{}),
	}
	err := e.fillWindow(job, src, n)
	if err == nil {
		e.mu.Lock()
		job.rung = e.rung
		e.mu.Unlock()
		err = s.submit(job)
	}
	if err != nil {
		e.release(job, false)
	}
	return err
}

// fillWindow samples n slices from the source into job's window, staging
// each one when a staging tier is configured.
func (e *EngineOf[F]) fillWindow(job *windowJobOf[F], src SourceOf[F], n int) error {
	start := time.Now()
	for i := 0; i < n; i++ {
		f, err := grid.FromDataOf(e.dims.Nx, e.dims.Ny, e.dims.Nz, scratch.FloatsOf[F](e.dims.Len()))
		if err != nil {
			return err
		}
		t, err := src.Next(f)
		if err != nil {
			return fmt.Errorf("ingest: source: %w", err)
		}
		if err := job.win.Append(f, t); err != nil {
			return err
		}
		if e.cfg.Stage != nil {
			id, err := storage.PutSliceOf(e.cfg.Stage, f)
			if err != nil {
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
	return nil
}

// shedWindow steps the solver past n slices and journals a gap marker in
// their place, routed through the stage as an already-done job so it
// lands in timeline order.
func (e *EngineOf[F]) shedWindow(s *stageOf[F], src SourceOf[F], n int) error {
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
	done := make(chan struct{})
	close(done)
	return s.submit(&windowJobOf[F]{
		gap:  &core.GapMarker{Slices: n, T0: t0, T1: t1, Reason: core.GapShed},
		done: done,
	})
}

// appendWindow appends the job's compressed window, driving the policy
// through append failures: stall retries the same bytes until the
// deadline, degrade re-encodes the retained window at coarser rungs, shed
// gives the window up and journals a write-failed gap in its place.
func (e *EngineOf[F]) appendWindow(ctx context.Context, job *windowJobOf[F]) error {
	start := time.Now()
	cw := job.cw
	deadline := time.Now().Add(e.cfg.Deadline)
	rung := job.rung
	counted := false
	for {
		_, err := e.w.AppendCtx(ctx, cw)
		if err == nil {
			obs.Default().Histogram("ingest.append_seconds").ObserveSince(start)
			obs.Default().Counter("ingest.windows_appended_total").Add(1)
			e.mu.Lock()
			e.stats.WindowsAppended++
			e.stats.BytesEncoded += cw.EncodedSizeBytes()
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
					e.comps[rung].Options().Ratio, err, ErrLadderExhausted)
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
			recompressed, rerr := core.Compress(ctx, e.comps[rung], job.win, core.Coefficients)
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

// release recycles a job's window buffers, returns its bytes to the
// ledger, and wakes the producer. Its staged slices are dropped only once
// its journal entry is durable, so a failed run leaves the slices of every
// window it never journaled in the staging tier.
func (e *EngineOf[F]) release(job *windowJobOf[F], durable bool) {
	if job.win != nil {
		for _, s := range job.win.Slices {
			scratch.PutFloatsOf(s.Data)
			s.Data = nil
		}
		job.win = nil
	}
	if durable {
		for _, id := range job.stageIDs {
			e.cfg.Stage.Drop(id) //stlint:ignore uncheckederr staged slices are a cache; a failed drop only leaves litter for the next orphan GC
		}
	}
	e.charge(-job.rawBytes)
	e.wake()
}

// snapshot copies the stats under the lock and stamps the final ratio.
func (e *EngineOf[F]) snapshot() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.FinalRatio = e.comps[e.rung].Options().Ratio
	return s
}
