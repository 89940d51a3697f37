package ingest

// The ordered compress stage's contract, checked through the engine:
// failures drain without journaling past a hole, completion order never
// reaches the journal, Run leaks no goroutine, and the concurrent path
// writes the synchronous writer's bytes.

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/obs"
	"stwave/internal/sim/synth"
	"stwave/internal/storage"
)

// leakCheck snapshots the goroutine count and fails the test if, after a
// grace period for exiting goroutines to unwind, the count stays above the
// baseline — the regression guard for the stage's drain-on-error contract.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			runtime.GC()
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// runWithin runs eng over total slices from src and fails the test if Run
// has not returned within 10s — the stage deadlocked.
func runWithin[F num.Float](t *testing.T, eng *EngineOf[F], src SourceOf[F], total int) (Stats, error) {
	t.Helper()
	var (
		stats Stats
		err   error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		stats, err = eng.Run(src, total)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked")
	}
	return stats, err
}

// TestPipelineSinkErrorDrains pins the drain contract when the journal
// fails for good: nothing is journaled past the failed window, the
// producer learns of the failure at its next submit instead of sampling
// the whole run, and Run drains every worker without leaking goroutines.
func TestPipelineSinkErrorDrains(t *testing.T) {
	defer leakCheck(t)()
	path := filepath.Join(t.TempDir(), "sink.stw")
	w, ff := faultWriter(t, path)
	eng, err := NewEngineOf[float64](Config{
		Opts: testOpts(), Workers: 2, Policy: PolicyStall,
		Deadline: 50 * time.Millisecond, RetryEvery: 2 * time.Millisecond,
	}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	ff.SetFreeSpace(0) // no record ever fits
	const total = 64 * 4
	stats, err := runWithin(t, eng, newTestSource(t), total)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Run = %v, want ErrDeadline", err)
	}
	if stats.WindowsAppended != 0 || stats.WindowsShed != 0 {
		t.Fatalf("stats = %+v, want nothing journaled past the failed window 0", stats)
	}
	if stats.SlicesIn >= total {
		t.Fatalf("producer sampled all %d slices past a failed journal", stats.SlicesIn)
	}
	ff.AddFreeSpace(1 << 20) // room for the footer
	if n := closedEntries(t, w, path); n != 0 {
		t.Fatalf("container holds %d entries, want 0", n)
	}
}

// closedEntries closes w and returns how many entries (windows and gap
// markers) the container at path holds.
func closedEntries(t *testing.T, w *storage.ContainerWriter, path string) int {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	return r.NumWindows()
}

// playedStage starts a stage whose delivery goroutine runs but whose
// workers the test plays, so the test decides the completion order. It
// returns the stage and a producer that submits one 4-slice window, or a
// gap in its place when shed is set.
func playedStage(t *testing.T, eng *EngineOf[float64]) (*stageOf[float64], func(shed bool)) {
	t.Helper()
	s := &stageOf[float64]{ctx: context.Background(), work: make(chan *windowJobOf[float64], 4), order: make(chan *windowJobOf[float64], 4)}
	s.running.Add(1)
	go func() {
		defer s.running.Done()
		eng.deliverJobs(s)
	}()
	src := newTestSource(t)
	return s, func(shed bool) {
		t.Helper()
		var err error
		if shed {
			err = eng.shedWindow(s, src, 4)
		} else {
			eng.charge(4 * eng.sliceBytes())
			err = eng.produceWindow(s, src, 4)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelineJobErrorDrains: the same contract when a compression (not
// the journal) fails. A bound below the codec's quantization floor fails
// every window through the engine. Then, with the test playing the
// workers, window 0 fails after window 1 has compressed, with a gap and
// window 2 queued behind it: nothing past the hole is journaled, and
// window 2 is never compressed.
func TestPipelineJobErrorDrains(t *testing.T) {
	defer leakCheck(t)()
	opts := testOpts()
	opts.MaxErr = 1e-12
	path := filepath.Join(t.TempDir(), "job.stw")
	w, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineOf[float64](Config{Opts: opts, Workers: 3}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	const total = 32 * 4
	stats, err := runWithin(t, eng, newTestSource(t), total)
	if !errors.Is(err, core.ErrBoundUnreachable) {
		t.Fatalf("Run = %v, want ErrBoundUnreachable", err)
	}
	if stats.WindowsAppended != 0 || stats.SlicesIn >= total {
		t.Fatalf("stats = %+v, want no window journaled and the producer stopped early", stats)
	}
	if n := closedEntries(t, w, path); n != 0 {
		t.Fatalf("container holds %d entries past a hole at window 0, want 0", n)
	}

	path = filepath.Join(t.TempDir(), "hole.stw")
	if w, err = storage.CreateContainer(path); err != nil {
		t.Fatal(err)
	}
	if eng, err = NewEngineOf[float64](Config{Opts: testOpts(), Workers: 3}, testDims(), w); err != nil {
		t.Fatal(err)
	}
	s, produce := playedStage(t, eng)
	produce(false)
	produce(true)
	produce(false)
	produce(false)
	w0, w1, w2 := <-s.work, <-s.work, <-s.work
	eng.compressJob(s, w1)
	if w1.err != nil || w1.cw == nil {
		t.Fatalf("window 1 did not compress: %v", w1.err)
	}
	boom := errors.New("boom")
	w0.err = boom
	close(w0.done)
	for deadline := time.Now().Add(10 * time.Second); s.Err() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("delivery never recorded window 0's error")
		}
	}
	eng.compressJob(s, w2)
	if w2.cw != nil {
		t.Fatal("window 2 was compressed after the stage failed")
	}
	if err := s.finish(); !errors.Is(err, boom) {
		t.Fatalf("finish = %v, want window 0's error", err)
	}
	if st := eng.snapshot(); st.WindowsAppended != 0 || st.WindowsShed != 0 {
		t.Fatalf("stats = %+v: journaled past the hole at window 0", st)
	}
	if n := closedEntries(t, w, path); n != 0 {
		t.Fatalf("container holds %d entries past a hole at window 0, want 0", n)
	}
}

// TestPipelineOrdered: jobs that finish out of order — a later window
// compressed first, and a shed gap that is done on submit — are still
// journaled in submission order. The test plays the workers, so it
// decides the completion order.
func TestPipelineOrdered(t *testing.T) {
	defer leakCheck(t)()
	path := filepath.Join(t.TempDir(), "ordered.stw")
	w, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineOf[float64](Config{Opts: testOpts(), Workers: 2}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	s, produce := playedStage(t, eng)
	produce(false)
	produce(true)
	produce(false)
	first, last := <-s.work, <-s.work
	eng.compressJob(s, last)
	time.Sleep(20 * time.Millisecond) // room for an out-of-order append
	if st := eng.snapshot(); st.WindowsAppended != 0 || st.WindowsShed != 0 {
		t.Fatalf("stats = %+v: journaled ahead of window 0", st)
	}
	eng.compressJob(s, first)
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if windows, gaps, total := verifyTimeline(t, path); windows != 2 || gaps != 4 || total != 12 {
		t.Fatalf("timeline %d/%d/%d, want window, gap, window over 12 slices", windows, gaps, total)
	}
}

// TestPipelineCloseInFlightNoLeak: a clean run with several windows in
// flight returns only after every delivery, leaves the ledger and queue
// gauges at zero, and leaks nothing.
func TestPipelineCloseInFlightNoLeak(t *testing.T) {
	defer leakCheck(t)()
	path := filepath.Join(t.TempDir(), "inflight.stw")
	w, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineOf[float64](Config{Opts: testOpts(), Workers: 2}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := runWithin(t, eng, newTestSource(t), 6*4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WindowsAppended != 6 {
		t.Fatalf("delivered %d windows, want 6", stats.WindowsAppended)
	}
	for _, g := range []string{"ingest.inflight_bytes", "ingest.queue_depth_windows"} {
		if v := obs.Default().Gauge(g).Load(); v != 0 {
			t.Errorf("gauge %s = %g after Run, want 0", g, v)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// newSynthSourceOf is newTestSource at precision F and the given dims.
func newSynthSourceOf[F num.Float](t *testing.T, dims grid.Dims) SourceOf[F] {
	t.Helper()
	f, err := synth.NewField(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSynthSourceOf[F](f, dims, testDT)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// compressCopyBytes is the engine's oracle: seq partitioned into windows
// of opts.SlicesPerWindow slices, each compressed with Copy input and
// serialized.
func compressCopyBytes[F num.Float](t *testing.T, opts core.Options, seq *grid.WindowOf[F]) [][]byte {
	t.Helper()
	c, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := seq.Partition(opts.SlicesPerWindow())
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, ch := range chunks {
		cw, err := core.Compress(context.Background(), c, ch, core.Copy)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, serialize(t, cw))
	}
	return out
}

func serialize(t *testing.T, cw *core.CompressedWindow) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEngineMatchesWriter streams total synthetic slices through the
// engine on each worker count and checks every journaled window is
// byte-identical to core.Compress(Copy) on the same run of slices — the
// Partition into windows of SlicesPerWindow, including the short trailing
// window.
func checkEngineMatchesWriter[F num.Float](t *testing.T, opts core.Options, dims grid.Dims, total, windows int, workers ...int) {
	t.Helper()
	seq := grid.NewWindowOf[F](dims)
	src := newSynthSourceOf[F](t, dims)
	for range total {
		f := grid.NewField3DOf[F](dims.Nx, dims.Ny, dims.Nz)
		tm, err := src.Next(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := seq.Append(f, tm); err != nil {
			t.Fatal(err)
		}
	}
	want := compressCopyBytes(t, opts, seq)
	if len(want) != windows {
		t.Fatalf("%d slices at %v: %d windows, want %d", total, opts.Mode, len(want), windows)
	}
	for _, n := range workers {
		path := filepath.Join(t.TempDir(), "async.stw")
		w, err := storage.CreateContainer(path)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngineOf[F](Config{Opts: opts, Workers: n}, dims, w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runWithin(t, eng, newSynthSourceOf[F](t, dims), total); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := storage.OpenContainer(path)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumWindows() != len(want) {
			t.Fatalf("workers=%d: engine journaled %d windows, want %d", n, r.NumWindows(), len(want))
		}
		for i := range want {
			cw, err := r.ReadWindow(i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serialize(t, cw), want[i]) {
				t.Fatalf("workers=%d window %d: engine bytes differ from Compress(Copy)", n, i)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAsyncWriterMatchesSyncWriter: windows compressed concurrently by the
// engine's stage and journaled in order are byte-identical to a
// synchronous Compress(Copy) of each window, for one and for several
// workers.
func TestAsyncWriterMatchesSyncWriter(t *testing.T) {
	defer leakCheck(t)()
	opts := core.DefaultOptions()
	opts.WindowSize = 10
	opts.Ratio = 16
	checkEngineMatchesWriter[float64](t, opts, grid.Dims{Nx: 10, Ny: 10, Nz: 10}, 27, 3, 1, 4)
	opts.Mode = core.Spatial3D
	checkEngineMatchesWriter[float64](t, opts, grid.Dims{Nx: 10, Ny: 10, Nz: 10}, 3, 3, 1, 4)
}

// TestAsyncWriter32MatchesSync: the same byte equality at float32.
func TestAsyncWriter32MatchesSync(t *testing.T) {
	defer leakCheck(t)()
	opts := core.DefaultOptions()
	opts.WindowSize = 5
	opts.Workers = 2
	checkEngineMatchesWriter[float32](t, opts, grid.Dims{Nx: 10, Ny: 8, Nz: 6}, 12, 3, 3)
}
