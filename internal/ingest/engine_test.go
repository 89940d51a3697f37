package ingest

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/obs"
	"stwave/internal/par"
	"stwave/internal/sim/synth"
	"stwave/internal/storage"
)

const testDT = 0.5

func testDims() grid.Dims { return grid.Dims{Nx: 8, Ny: 8, Nz: 8} }

// newTestSource returns a deterministic synthetic source; two calls with
// the same seed produce identical slice streams, which is what the crash
// matrix's bit-identical assertions lean on.
func newTestSource(t *testing.T) SourceOf[float64] {
	t.Helper()
	f, err := synth.NewField(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSynthSourceOf[float64](f, testDims(), testDT)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func testOpts() core.Options {
	opts := core.DefaultOptions()
	opts.Mode = core.Spatiotemporal4D
	opts.WindowSize = 4
	opts.Ratio = 4
	return opts
}

// refWindow regenerates the window covering the given times from a fresh
// identical source ensemble.
func refWindow(t *testing.T, times []float64) *grid.Window {
	t.Helper()
	f, err := synth.NewField(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := testDims()
	w := grid.NewWindow(d)
	for _, tm := range times {
		s, err := f.SampleScalar(d.Nx, d.Ny, d.Nz, tm)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(s, tm); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// verifyTimeline asserts the crash-matrix invariant over a finalized or
// recovered container: entries form a contiguous slice timeline from
// slice 0, and every durable window's payload is bit-identical to a
// deterministic recompression of the same source slices at the ratio
// recorded in its own header. Returns (windows, gapSlices, totalSlices).
func verifyTimeline(t *testing.T, path string) (windows, gapSlices, total int) {
	t.Helper()
	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	slice := 0
	for i := 0; i < r.NumWindows(); i++ {
		wi, err := r.WindowInfo(i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if wi.Gap != nil {
			if got, want := wi.Gap.T0, float64(slice)*testDT; got != want {
				t.Fatalf("entry %d: gap starts at t=%g, want %g (timeline shifted)", i, got, want)
			}
			slice += wi.Gap.Slices
			gapSlices += wi.Gap.Slices
			continue
		}
		cw, err := r.ReadWindow(i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if got, want := cw.Times[0], float64(slice)*testDT; got != want {
			t.Fatalf("entry %d: window starts at t=%g, want %g (timeline shifted)", i, got, want)
		}
		// Rebuild the compressor from the run configuration plus the ratio
		// the window's own header recorded (degrade runs vary per window).
		opts := testOpts()
		opts.Ratio = cw.Opts.Ratio
		comp, err := core.New(opts)
		if err != nil {
			t.Fatalf("entry %d: rebuilding compressor: %v", i, err)
		}
		ref, err := core.Compress(context.Background(), comp, refWindow(t, cw.Times), core.Copy)
		if err != nil {
			t.Fatalf("entry %d: recompressing reference: %v", i, err)
		}
		var got, want bytes.Buffer
		if _, err := cw.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("entry %d: durable payload differs from deterministic recompression at its recorded ratio %g",
				i, cw.Opts.Ratio)
		}
		slice += cw.NumSlices()
		windows++
	}
	return windows, gapSlices, slice
}

// TestIngestMatchesOfflineCompression: every durable window equals the
// offline compression of the same slices, a short trailing window
// included, and the engine compresses its own buffers in place, never
// cloning a window.
func TestIngestMatchesOfflineCompression(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.stw")
	w, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineOf[float64](Config{Opts: testOpts(), Workers: 2}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	clones := obs.Default().Counter("core.window_clone_bytes_total")
	before := clones.Load()
	// 10 slices at window 4: two full windows plus a partial flush.
	stats, err := eng.Run(newTestSource(t), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := clones.Load() - before; got != 0 {
		t.Errorf("engine cloned %d window bytes, want 0", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.SlicesIn != 10 || stats.WindowsAppended != 3 || stats.WindowsShed != 0 {
		t.Fatalf("stats = %+v, want 10 slices in 3 windows", stats)
	}
	windows, gaps, total := verifyTimeline(t, path)
	if windows != 3 || gaps != 0 || total != 10 {
		t.Fatalf("timeline: %d windows, %d gap slices, %d total; want 3/0/10", windows, gaps, total)
	}
	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var encoded int64
	for i, want := range []int{4, 4, 2} {
		cw, err := r.ReadWindow(i)
		if err != nil {
			t.Fatal(err)
		}
		if cw.NumSlices() != want {
			t.Errorf("window %d holds %d slices, want %d", i, cw.NumSlices(), want)
		}
		encoded += cw.EncodedSizeBytes()
	}
	if stats.BytesEncoded != encoded {
		t.Errorf("stats count %d encoded bytes, the windows hold %d", stats.BytesEncoded, encoded)
	}
}

// TestIngestWindowSource: an in-memory window replays at its own times
// into one-slice windows in 3D mode, the window itself is only read, and
// asking for more slices than it holds fails the run.
func TestIngestWindowSource(t *testing.T) {
	d := testDims()
	series := refWindow(t, []float64{8502, 8503, 8504})
	orig := series.Clone()
	opts := testOpts()
	opts.Mode = core.Spatial3D
	path := filepath.Join(t.TempDir(), "3d.stw")
	w, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineOf[float64](Config{Opts: opts}, d, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(NewWindowSourceOf(series), series.Len()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range series.Slices {
		if series.Times[i] != orig.Times[i] || !slices.Equal(series.Slices[i].Data, orig.Slices[i].Data) {
			t.Fatalf("slice %d of the source window changed during the run", i)
		}
	}
	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumWindows() != 3 {
		t.Fatalf("3D run of 3 slices journaled %d windows, want 3", r.NumWindows())
	}
	for i := 0; i < 3; i++ {
		cw, err := r.ReadWindow(i)
		if err != nil {
			t.Fatal(err)
		}
		if cw.NumSlices() != 1 || cw.Times[0] != series.Times[i] {
			t.Errorf("window %d: %d slices at t=%v, want 1 at t=%g", i, cw.NumSlices(), cw.Times, series.Times[i])
		}
	}

	w2, err := storage.CreateContainer(filepath.Join(t.TempDir(), "short.stw"))
	if err != nil {
		t.Fatal(err)
	}
	eng, err = NewEngineOf[float64](Config{Opts: opts}, d, w2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(NewWindowSourceOf(series), series.Len()+1); err == nil {
		t.Error("a run past the end of the window succeeded")
	}
	if err := w2.Close(); err != nil {
		t.Error(err)
	}
}

// gateFile blocks every write until the test releases it — a storage tier
// that has simply stopped absorbing bytes, for driving the admission gate
// deterministically.
type gateFile struct {
	inner   storage.WritableFile
	release chan struct{}
}

func (g *gateFile) WriteAt(p []byte, off int64) (int, error) {
	<-g.release
	return g.inner.WriteAt(p, off)
}
func (g *gateFile) Truncate(size int64) error { <-g.release; return g.inner.Truncate(size) }
func (g *gateFile) Sync() error               { return g.inner.Sync() }
func (g *gateFile) Close() error              { return g.inner.Close() }

// counterDelta polls an obs counter until it rises above start (or times
// out), then runs fn — the hook for releasing a gate only after the
// backpressure path has provably fired.
func onCounterRise(t *testing.T, name string, start int64, fn func()) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if obs.Default().Counter(name).Load() > start {
				fn()
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Errorf("counter %s never rose above %d", name, start)
		fn() // unwedge the run so the test fails instead of hanging
	}()
	return &wg
}

func gatedWriter(t *testing.T, path string) (*storage.ContainerWriter, chan struct{}) {
	t.Helper()
	osf, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	return storage.NewContainerWriter(&gateFile{inner: osf, release: release}), release
}

// TestIngestStallAdmission: with a one-window budget and storage wedged,
// the stall policy blocks the solver; once storage drains, everything
// lands and the ledger never exceeded the budget.
func TestIngestStallAdmission(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stall.stw")
	w, release := gatedWriter(t, path)
	budget := int64(4) * int64(testDims().Len()) * 8 // exactly one window
	eng, err := NewEngineOf[float64](Config{
		Opts: testOpts(), Workers: 2, MemBudget: budget,
		Policy: PolicyStall, RetryEvery: 2 * time.Millisecond,
	}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	start := obs.Default().Counter("ingest.backpressure_events_total.stall").Load()
	var released sync.Once
	var depth float64
	wg := onCounterRise(t, "ingest.backpressure_events_total.stall", start, func() {
		// Window 0 is queued, wedged in its append, while window 1 stalls.
		depth = obs.Default().Gauge("ingest.queue_depth_windows").Load()
		released.Do(func() { close(release) })
	})
	cloned := obs.Default().Counter("core.window_clone_bytes_total").Load()
	stats, err := eng.Run(newTestSource(t), 8)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// The engine compresses its own buffers in place: no window is copied.
	if d := obs.Default().Counter("core.window_clone_bytes_total").Load() - cloned; d != 0 {
		t.Fatalf("engine cloned %d window bytes, want 0", d)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.Backpressure < 1 {
		t.Fatalf("stats = %+v, want at least one stall event", stats)
	}
	if depth != 1 {
		t.Fatalf("queue depth gauge read %g during the stall, want the 1 queued window", depth)
	}
	if stats.PeakInFlightBytes > budget {
		t.Fatalf("peak in-flight %d exceeded budget %d", stats.PeakInFlightBytes, budget)
	}
	windows, gaps, total := verifyTimeline(t, path)
	if windows != 2 || gaps != 0 || total != 8 {
		t.Fatalf("timeline: %d/%d/%d, want 2 windows, 0 gap slices, 8 total", windows, gaps, total)
	}
}

// TestIngestShedAdmission: same wedge, shed policy — later windows are
// dropped behind GapShed markers and the timeline stays aligned.
func TestIngestShedAdmission(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shed.stw")
	w, release := gatedWriter(t, path)
	budget := int64(4) * int64(testDims().Len()) * 8
	eng, err := NewEngineOf[float64](Config{
		Opts: testOpts(), Workers: 2, MemBudget: budget,
		Policy: PolicyShed, RetryEvery: 2 * time.Millisecond,
	}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	// Window 0 is admitted and wedges in the append; windows 1 and 2 are
	// shed at admission. Release the gate only after both shed decisions
	// fired — the decision counter, not the gap-append counter, because
	// gap appends themselves need the gate open.
	start := obs.Default().Counter("ingest.backpressure_events_total.shed").Load()
	var released sync.Once
	wg := onCounterRise(t, "ingest.backpressure_events_total.shed", start+1, func() {
		released.Do(func() { close(release) })
	})
	stats, err := eng.Run(newTestSource(t), 12)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.WindowsAppended != 1 || stats.WindowsShed != 2 || stats.SlicesShed != 8 {
		t.Fatalf("stats = %+v, want 1 appended, 2 shed (8 slices)", stats)
	}
	windows, gaps, total := verifyTimeline(t, path)
	if windows != 1 || gaps != 8 || total != 12 {
		t.Fatalf("timeline: %d/%d/%d, want 1 window, 8 gap slices, 12 total", windows, gaps, total)
	}
	// Gap reasons must say shed-at-admission, and the gap markers mount
	// with the correct spans (checked inside verifyTimeline); check the
	// reason byte here.
	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 1; i <= 2; i++ {
		g, err := r.GapMarker(i)
		if err != nil {
			t.Fatal(err)
		}
		if g.Reason != core.GapShed {
			t.Fatalf("gap %d reason = %v, want shed", i, g.Reason)
		}
	}
}

// TestIngestDegradeAdmission: under the same wedge, the degrade policy
// steps the ladder so the window submitted after pressure carries a
// coarser recorded ratio.
func TestIngestDegradeAdmission(t *testing.T) {
	path := filepath.Join(t.TempDir(), "degrade.stw")
	w, release := gatedWriter(t, path)
	budget := int64(4) * int64(testDims().Len()) * 8
	eng, err := NewEngineOf[float64](Config{
		Opts: testOpts(), Workers: 2, MemBudget: budget,
		Policy: PolicyDegrade, Ladder: []float64{8, 16},
		RetryEvery: 2 * time.Millisecond,
	}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	start := obs.Default().Counter("ingest.degrade_steps_total").Load()
	var released sync.Once
	wg := onCounterRise(t, "ingest.degrade_steps_total", start, func() {
		released.Do(func() { close(release) })
	})
	stats, err := eng.Run(newTestSource(t), 8)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.DegradeSteps < 1 || stats.FinalRatio != 8 {
		t.Fatalf("stats = %+v, want >=1 degrade step landing on ratio 8", stats)
	}
	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cw0, err := r.ReadWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	cw1, err := r.ReadWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	if cw0.Opts.Ratio != 4 || cw1.Opts.Ratio != 8 {
		t.Fatalf("recorded ratios %g, %g; want 4 then 8 (degrade recorded per-window)", cw0.Opts.Ratio, cw1.Opts.Ratio)
	}
	if _, _, total := verifyTimeline(t, path); total != 8 {
		t.Fatalf("timeline covers %d slices, want 8", total)
	}
}

// TestIngestStagesThroughBurstBuffer: with a staging tier configured,
// slices pass through the burst buffer and are dropped once durable.
func TestIngestStagesThroughBurstBuffer(t *testing.T) {
	dir := t.TempDir()
	stage, err := storage.NewBurstBuffer(dir, storage.DefaultModel(), testDims())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "staged.stw")
	w, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineOf[float64](Config{Opts: testOpts(), Workers: 2, Stage: stage}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(newTestSource(t), 8); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stage.Len() != 0 {
		t.Fatalf("%d slices left staged after a clean run", stage.Len())
	}
	left, err := filepath.Glob(filepath.Join(dir, "slice-*.raw"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("staged slice files left on disk: %v", left)
	}
	if _, _, total := verifyTimeline(t, path); total != 8 {
		t.Fatalf("timeline covers %d slices, want 8", total)
	}
}

func TestEngineValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.stw")
	w, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() //stlint:ignore uncheckederr validation-only writer
	if _, err := NewEngineOf[float64](Config{Opts: testOpts()}, grid.Dims{}, w); err == nil {
		t.Error("invalid dims accepted")
	}
	if _, err := NewEngineOf[float64](Config{Opts: testOpts()}, testDims(), nil); err == nil {
		t.Error("nil writer accepted")
	}
	if _, err := NewEngineOf[float64](Config{Opts: testOpts(), Policy: PolicyDegrade}, testDims(), w); err == nil {
		t.Error("degrade without ladder accepted")
	}
	if _, err := NewEngineOf[float64](Config{Opts: testOpts(), Ladder: []float64{2}}, testDims(), w); err == nil {
		t.Error("non-coarsening ladder accepted")
	}
	target := testOpts()
	target.TargetNRMSE = 1e-3
	if _, err := NewEngineOf[float64](Config{Opts: target, Policy: PolicyDegrade, Ladder: []float64{64}}, testDims(), w); err == nil {
		t.Error("degrade policy accepted under TargetNRMSE")
	}
	eng, err := NewEngineOf[float64](Config{Opts: testOpts()}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(newTestSource(t), 0); err == nil {
		t.Error("zero slices accepted")
	}
	other := grid.NewWindow(grid.Dims{Nx: 4, Ny: 8, Nz: 8})
	if err := other.Append(grid.NewField3D(4, 8, 8), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(NewWindowSourceOf(other), 1); err == nil {
		t.Error("source dims that differ from the engine's accepted")
	}
}

// TestEngineSplitsWorkerBudget: the engine runs cfg.Workers compress jobs
// at once, so every rung's compressor must get the inner share of
// Opts.Workers, never the whole budget (0 would let each job resolve all
// of GOMAXPROCS on its own).
func TestEngineSplitsWorkerBudget(t *testing.T) {
	w, err := storage.CreateContainer(filepath.Join(t.TempDir(), "b.stw"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.Close(); err != nil {
			t.Error(err)
		}
	}()
	for _, budget := range []int{0, 4} {
		opts := testOpts()
		opts.Workers = budget
		eng, err := NewEngineOf[float64](Config{Opts: opts, Workers: 2, Ladder: []float64{8}}, testDims(), w)
		if err != nil {
			t.Fatal(err)
		}
		_, inner := par.Split(budget, 2)
		for i, c := range eng.comps {
			if got := c.Options().Workers; got != inner {
				t.Errorf("Opts.Workers %d, 2 jobs: rung %d compressor has %d workers, want the inner share %d", budget, i, got, inner)
			}
		}
	}
}

// TestIngestMaxErr: under MaxErr the engine compresses its own buffers
// InPlace, and every durable window equals the offline Copy compress of
// the same samples. PolicyDegrade is refused, because its rungs step a
// ratio that the error-bounded mode ignores.
func TestIngestMaxErr(t *testing.T) {
	opts := testOpts()
	opts.MaxErr = 5e-3
	path := filepath.Join(t.TempDir(), "maxerr.stw")
	w, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngineOf[float64](Config{Opts: opts, Policy: PolicyDegrade, Ladder: []float64{8}}, testDims(), w); err == nil {
		t.Error("degrade policy accepted under MaxErr")
	}
	eng, err := NewEngineOf[float64](Config{Opts: opts, Workers: 2}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(newTestSource(t), 8); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumWindows() != 2 {
		t.Fatalf("%d windows, want 2", r.NumWindows())
	}
	for i := 0; i < r.NumWindows(); i++ {
		cw, err := r.ReadWindow(i)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.Compress(context.Background(), comp, refWindow(t, cw.Times), core.Copy)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if _, err := cw.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("window %d: ingest bytes differ from the offline compress", i)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"stall": PolicyStall, "degrade": PolicyDegrade, "shed": PolicyShed} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("%v.String() = %q", got, got.String())
		}
	}
	if _, err := ParsePolicy("panic"); err == nil {
		t.Error("unknown policy accepted")
	}
}

var _ = errors.Is // keep errors imported for fault tests in this package
