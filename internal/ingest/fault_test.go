package ingest

// The crash matrix: every backpressure policy driven through injected
// storage faults (transient EIO, ENOSPC, fsync failure, torn writes),
// with the one invariant the drain design promises checked after each
// run — the journal is a bit-identical durable prefix of the true
// timeline, with gap markers accounting for every slice that is missing.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stwave/internal/core"
	"stwave/internal/faultio"
	"stwave/internal/obs"
	"stwave/internal/storage"
	"stwave/internal/wavelet"
)

// faultWriter builds a container writer over a fault-injecting file.
func faultWriter(t *testing.T, path string) (*storage.ContainerWriter, *faultio.File) {
	t.Helper()
	osf, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ff := faultio.Wrap(osf)
	return storage.NewContainerWriter(ff), ff
}

func sliceTimes(start, n int) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = float64(start+i) * testDT
	}
	return ts
}

// recordSize computes the exact on-disk record size of the window
// covering times at the given target ratio — compression is
// deterministic, so the streaming engine will write exactly these bytes.
func recordSize(t *testing.T, times []float64, ratio float64) int64 {
	t.Helper()
	opts := testOpts()
	opts.Ratio = ratio
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := comp.CompressWindow(refWindow(t, times))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return core.RecordHeaderSize + int64(buf.Len())
}

// gapRecordSize is the on-disk size of one journaled gap marker.
const gapRecordSize = core.RecordHeaderSize + core.GapMarkerSize

// TestIngestTransientWriteErrors: EIO that clears within the retry
// policy's attempts is absorbed below the backpressure layer entirely.
func TestIngestTransientWriteErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eio.stw")
	w, ff := faultWriter(t, path)
	eng, err := NewEngine(Config{Opts: testOpts(), Workers: 2, Policy: PolicyStall}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	ff.FailWrites(2) // DefaultRetryPolicy allows 3 attempts
	stats, err := eng.Run(newTestSource(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.Backpressure != 0 || stats.AppendRetries != 0 {
		t.Fatalf("stats = %+v; transient errors must not reach the policy layer", stats)
	}
	if windows, gaps, total := verifyTimeline(t, path); windows != 2 || gaps != 0 || total != 8 {
		t.Fatalf("timeline %d/%d/%d, want 2 windows covering 8 slices", windows, gaps, total)
	}
}

// TestIngestENOSPCStall: a full disk stalls the drain; when space frees,
// every window lands with nothing lost.
func TestIngestENOSPCStall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stall.stw")
	w, ff := faultWriter(t, path)
	eng, err := NewEngine(Config{
		Opts: testOpts(), Workers: 2, Policy: PolicyStall,
		RetryEvery: 2 * time.Millisecond,
	}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one window record fits; window 1's append hits ENOSPC and
	// stalls. Free the space once the stall has provably begun.
	ff.SetFreeSpace(recordSize(t, sliceTimes(0, 4), 4))
	start := obs.Default().Counter("ingest.backpressure_events_total.stall").Load()
	wg := onCounterRise(t, "ingest.backpressure_events_total.stall", start, func() {
		ff.AddFreeSpace(1 << 20)
	})
	stats, err := eng.Run(newTestSource(t), 8)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.Backpressure < 1 || stats.AppendRetries < 1 || stats.WindowsShed != 0 {
		t.Fatalf("stats = %+v, want a stalled retry and no shedding", stats)
	}
	if windows, gaps, total := verifyTimeline(t, path); windows != 2 || gaps != 0 || total != 8 {
		t.Fatalf("timeline %d/%d/%d, want 2 windows covering 8 slices", windows, gaps, total)
	}
}

// TestIngestENOSPCDegrade: when the fine-ratio record does not fit, the
// degrade policy re-encodes the retained coefficients at the next rung
// and the journal records the coarser ratio in the window's own header.
func TestIngestENOSPCDegrade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "degrade.stw")
	w, ff := faultWriter(t, path)
	eng, err := NewEngine(Config{
		Opts: testOpts(), Workers: 1, Policy: PolicyDegrade,
		Ladder: []float64{8, 16}, RetryEvery: 2 * time.Millisecond,
	}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	fine := recordSize(t, sliceTimes(0, 4), 4)
	coarse := recordSize(t, sliceTimes(0, 4), 8)
	if coarse >= fine {
		t.Fatalf("coarse record (%d) not smaller than fine (%d); test sizing broken", coarse, fine)
	}
	ff.SetFreeSpace(coarse) // ratio-4 record cannot fit, ratio-8 exactly does
	fwd := obs.Default().Histogram("transform.forward_3d_seconds." + testOpts().SpatialKernel.Slug())
	fwd0 := fwd.Count()
	stats, err := eng.Run(newTestSource(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	ff.AddFreeSpace(1 << 20) // room for the footer
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.DegradeSteps != 1 || stats.FinalRatio != 8 || stats.WindowsShed != 0 {
		t.Fatalf("stats = %+v, want exactly one degrade step to ratio 8", stats)
	}
	// The rung re-selects from the retained coefficients: one transform.
	if n := fwd.Count() - fwd0; n != 1 {
		t.Fatalf("degraded window ran %d forward transforms, want 1", n)
	}
	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := r.ReadWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if cw.Opts.Ratio != 8 {
		t.Fatalf("recorded ratio %g, want 8", cw.Opts.Ratio)
	}
	if windows, gaps, total := verifyTimeline(t, path); windows != 1 || gaps != 0 || total != 4 {
		t.Fatalf("timeline %d/%d/%d, want the single degraded window", windows, gaps, total)
	}
}

// TestIngestENOSPCShed: with only gap-marker room left on disk, the shed
// policy converts every window into a write-failed gap — data is lost
// but the loss itself is journaled, slice for slice.
func TestIngestENOSPCShed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shed.stw")
	w, ff := faultWriter(t, path)
	eng, err := NewEngine(Config{
		Opts: testOpts(), Workers: 2, Policy: PolicyShed,
		RetryEvery: 2 * time.Millisecond,
	}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	ff.SetFreeSpace(2*gapRecordSize + 10) // gaps fit, window records never do
	stats, err := eng.Run(newTestSource(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	ff.AddFreeSpace(1 << 20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.WindowsAppended != 0 || stats.WindowsShed != 2 || stats.SlicesShed != 8 {
		t.Fatalf("stats = %+v, want both windows shed (8 slices)", stats)
	}
	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 2; i++ {
		g, err := r.GapMarker(i)
		if err != nil {
			t.Fatal(err)
		}
		if g.Reason != core.GapWriteFailed {
			t.Fatalf("gap %d reason = %v, want write-failed", i, g.Reason)
		}
	}
	if windows, gaps, total := verifyTimeline(t, path); windows != 0 || gaps != 8 || total != 8 {
		t.Fatalf("timeline %d/%d/%d, want 8 slices fully gap-accounted", windows, gaps, total)
	}
}

// TestIngestFsyncFailure: under SyncPerWindow a failing fsync fails the
// append (the record is trimmed back out); the stall policy rewrites the
// same bytes once fsync recovers.
func TestIngestFsyncFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fsync.stw")
	w, ff := faultWriter(t, path)
	w.Sync = storage.SyncPerWindow
	eng, err := NewEngine(Config{
		Opts: testOpts(), Workers: 1, Policy: PolicyStall,
		RetryEvery: 2 * time.Millisecond,
	}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	// Four transient sync faults: the first append burns its 3 retry
	// attempts and fails; the policy-level retry eats the fourth and lands.
	ff.FailSyncs(4)
	stats, err := eng.Run(newTestSource(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.AppendRetries < 1 || stats.WindowsAppended != 1 {
		t.Fatalf("stats = %+v, want the window to land via a policy retry", stats)
	}
	if windows, gaps, total := verifyTimeline(t, path); windows != 1 || gaps != 0 || total != 4 {
		t.Fatalf("timeline %d/%d/%d, want the single window intact", windows, gaps, total)
	}
}

// windowRecordSize is the on-disk record size of an already-compressed
// window, including the journal record header.
func windowRecordSize(t *testing.T, cw *core.CompressedWindow) int64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return core.RecordHeaderSize + int64(buf.Len())
}

// TestIngestENOSPCDegradeShedsLevels: for progressive windows the degrade
// ladder's first step is free — the finest retained detail level is
// dropped (a suffix truncation of the level-major payload) before any
// recompression rung is paid for, and the durable bytes are exactly the
// deterministic encoding of the reduced window.
func TestIngestENOSPCDegradeShedsLevels(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shedlevels.stw")
	w, ff := faultWriter(t, path)
	opts := testOpts()
	opts.Progressive = true
	opts.SpatialKernel = wavelet.Haar // 8^3 supports several Haar levels
	eng, err := NewEngine(Config{
		Opts: opts, Workers: 1, Policy: PolicyDegrade,
		Ladder: []float64{8}, RetryEvery: 2 * time.Millisecond,
	}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := comp.CompressWindow(refWindow(t, sliceTimes(0, 4)))
	if err != nil {
		t.Fatal(err)
	}
	dropped, ok := full.DropFinestLevel()
	if !ok {
		t.Fatal("test window has no detail level to drop; geometry too small")
	}
	fullSize, droppedSize := windowRecordSize(t, full), windowRecordSize(t, dropped)
	if droppedSize >= fullSize {
		t.Fatalf("dropped record (%d) not smaller than full (%d); test sizing broken", droppedSize, fullSize)
	}
	ff.SetFreeSpace(droppedSize) // full record cannot fit, one-level drop exactly does
	stats, err := eng.Run(newTestSource(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	ff.AddFreeSpace(1 << 20) // room for the footer
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.LevelsShed != 1 || stats.DegradeSteps != 0 || stats.WindowsShed != 0 {
		t.Fatalf("stats = %+v, want exactly one shed level and no recompression rung", stats)
	}
	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := r.ReadWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !cw.Progressive() || len(cw.LevelBlocks) != len(full.LevelBlocks)-1 {
		t.Fatalf("durable window has %d level groups, want %d", len(cw.LevelBlocks), len(full.LevelBlocks)-1)
	}
	if cw.Opts.Ratio != 4 {
		t.Fatalf("recorded ratio %g, want the fine ratio 4 (level shed must not change rung)", cw.Opts.Ratio)
	}
	var got, want bytes.Buffer
	if _, err := cw.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := dropped.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("durable payload differs from deterministic one-level-dropped encoding")
	}
}

// TestIngestTornWrite: a write torn mid-record is a permanent error; the
// writer trims the torn tail and the stall policy rewrites the record
// whole. The journal never exposes the torn bytes.
func TestIngestTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.stw")
	w, ff := faultWriter(t, path)
	eng, err := NewEngine(Config{
		Opts: testOpts(), Workers: 1, Policy: PolicyStall,
		RetryEvery: 2 * time.Millisecond,
	}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	// Tear inside window 1's payload: its single record write persists a
	// prefix and fails.
	ff.TearAt(recordSize(t, sliceTimes(0, 4), 4) + 30)
	stats, err := eng.Run(newTestSource(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.AppendRetries < 1 {
		t.Fatalf("stats = %+v, want the torn append retried", stats)
	}
	if windows, gaps, total := verifyTimeline(t, path); windows != 2 || gaps != 0 || total != 8 {
		t.Fatalf("timeline %d/%d/%d, want both windows intact", windows, gaps, total)
	}
}

// TestIngestCrashConsistentDrain: the disk fills and never recovers, the
// stall deadline fires, and the writer is abandoned without Close — a
// crash. RecoverContainer must then hand back a container whose every
// entry is bit-identical to offline compression of the same slices: the
// durable prefix, nothing more, nothing corrupt.
func TestIngestCrashConsistentDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.stw")
	w, ff := faultWriter(t, path)
	eng, err := NewEngine(Config{
		Opts: testOpts(), Workers: 2, Policy: PolicyStall,
		Deadline: 300 * time.Millisecond, RetryEvery: 5 * time.Millisecond,
	}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	ff.SetFreeSpace(recordSize(t, sliceTimes(0, 4), 4)) // window 0 only, forever
	_, err = eng.Run(newTestSource(t), 12)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Run error = %v, want ErrDeadline", err)
	}
	// Crash: no Close, no footer. Recover from the journal alone.
	rep, err := storage.RecoverContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Good != 1 {
		t.Fatalf("recovered %d entries, want exactly the durable prefix of 1", rep.Good)
	}
	if windows, gaps, total := verifyTimeline(t, path); windows != 1 || gaps != 0 || total != 4 {
		t.Fatalf("timeline %d/%d/%d, want window 0 bit-identical and nothing else", windows, gaps, total)
	}
}
