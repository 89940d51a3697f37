package storage

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"stwave/internal/core"
	"stwave/internal/faultio"
	"stwave/internal/grid"
)

func compressTestWindow(t *testing.T, d grid.Dims, slices int) *core.CompressedWindow {
	t.Helper()
	opts := core.DefaultOptions()
	opts.WindowSize = slices
	opts.Ratio = 8
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := core.Compress(context.Background(), comp, testWindow(d, slices), core.Copy)
	if err != nil {
		t.Fatal(err)
	}
	return cw
}

// TestContainerGapEntries: a gap marker is a first-class container entry —
// indexed, checksummed, visible to WindowInfo, and cleanly distinguished
// from both real windows and corruption on every read path.
func TestContainerGapEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gaps.stw")
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	cw := compressTestWindow(t, d, 5)
	g := core.GapMarker{Slices: 5, T0: 5, T1: 9, Reason: core.GapShed}

	w, err := CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	if i, err := w.Append(cw); err != nil || i != 0 {
		t.Fatalf("Append: %d, %v", i, err)
	}
	if i, err := w.AppendGap(g); err != nil || i != 1 {
		t.Fatalf("AppendGap: %d, %v", i, err)
	}
	if i, err := w.Append(cw); err != nil || i != 2 {
		t.Fatalf("Append: %d, %v", i, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumWindows() != 3 {
		t.Fatalf("NumWindows = %d, want 3", r.NumWindows())
	}
	// WindowInfo routes gaps without a second read.
	wi, err := r.WindowInfo(1)
	if err != nil {
		t.Fatal(err)
	}
	if wi.Gap == nil || *wi.Gap != g {
		t.Fatalf("WindowInfo(1).Gap = %+v, want %+v", wi.Gap, g)
	}
	if wi.NumSlices != g.Slices {
		t.Fatalf("gap NumSlices = %d, want %d", wi.NumSlices, g.Slices)
	}
	// ReadWindow refuses gaps with the typed error, and the refusal is
	// not misfiled as corruption.
	if _, err := r.ReadWindow(1); !errors.Is(err, core.ErrGapWindow) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadWindow(1) = %v, want ErrGapWindow and not ErrCorrupt", err)
	}
	got, err := r.GapMarker(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Fatalf("GapMarker(1) = %+v, want %+v", got, g)
	}
	// A real window is not a gap, and stays readable around the gap.
	if _, err := r.GapMarker(0); !errors.Is(err, core.ErrNotGap) {
		t.Fatalf("GapMarker(0) = %v, want ErrNotGap", err)
	}
	for _, i := range []int{0, 2} {
		if _, err := r.ReadWindow(i); err != nil {
			t.Fatalf("ReadWindow(%d): %v", i, err)
		}
	}
}

// TestGapSurvivesCrashRecovery: a crash after appending windows and gaps
// but before the footer leaves a journal that recovery rebuilds with the
// gap intact — the timeline accounting survives the loss of the index.
func TestGapSurvivesCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.stw")
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	cw := compressTestWindow(t, d, 5)
	g := core.GapMarker{Slices: 5, T0: 5, T1: 9, Reason: core.GapWriteFailed}

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewContainerWriter(f)
	if _, err := w.Append(cw); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendGap(g); err != nil {
		t.Fatal(err)
	}
	// Crash: the file is closed without Close(), so no footer exists.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := RecoverContainerOpts(path, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Good != 2 || len(rep.Corrupt) != 0 {
		t.Fatalf("recovered %d good, %v corrupt; want 2 good", rep.Good, rep.Corrupt)
	}
	if rep.Frames[1].Codec != "gap" {
		t.Fatalf("frame 1 codec = %q, want \"gap\" (fsck must name gap entries)", rep.Frames[1].Codec)
	}
	r, err := OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.GapMarker(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Fatalf("recovered gap = %+v, want %+v", got, g)
	}
}

// TestClearErrorReArmsWriter drives the policy-retry contract: an ENOSPC
// append sticky-fails the writer, ClearError re-arms it once the journal
// tail is proven trimmed, and the retried append lands — with the durable
// prefix never perturbed.
func TestClearErrorReArmsWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "enospc.stw")
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	cw := compressTestWindow(t, d, 5)

	osf, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ff := faultio.Wrap(osf)
	w := NewContainerWriter(ff)
	w.Sync = SyncPerWindow

	if _, err := w.Append(cw); err != nil {
		t.Fatal(err)
	}
	// Arm a full disk: the next record does not fit.
	ff.SetFreeSpace(10)
	if _, err := w.Append(cw); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append on full disk = %v, want ENOSPC", err)
	}
	// Sticky until cleared.
	if _, err := w.Append(cw); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append after failure = %v, want sticky ENOSPC", err)
	}
	if err := w.ClearError(); err != nil {
		t.Fatalf("ClearError: %v", err)
	}
	// Space freed (the stall policy's wait, compressed into one call).
	ff.AddFreeSpace(1 << 20)
	if i, err := w.Append(cw); err != nil || i != 1 {
		t.Fatalf("append after re-arm: %d, %v", i, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumWindows() != 2 {
		t.Fatalf("NumWindows = %d, want 2", r.NumWindows())
	}
	for i := 0; i < 2; i++ {
		if err := r.VerifyWindow(i); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
}

// TestBurstBufferPutSliceFailureLeavesNoOrphan: a PutSliceOf that fails
// after the file write must remove the file — nothing in live, nothing on
// disk.
func TestBurstBufferPutSliceFailureLeavesNoOrphan(t *testing.T) {
	dir := t.TempDir()
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	// A model with no Buffer tier makes the accounting step fail after
	// the slice file has been written.
	model := NewModel(map[Tier]TierSpec{Permanent: {WriteBandwidth: 1e9, ReadBandwidth: 1e9}})
	b, err := NewBurstBuffer(dir, model, d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PutSliceOf(b, grid.NewField3D(4, 4, 4)); err == nil {
		t.Fatal("PutSliceOf with unconfigured tier must fail")
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after failed put", b.Len())
	}
	left, err := filepath.Glob(filepath.Join(dir, "slice-*.raw"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("failed PutSliceOf left files behind: %v", left)
	}
}

// TestBurstBufferOrphanGC: slice files from a crashed prior run are
// removed on construction; unrelated files are untouched.
func TestBurstBufferOrphanGC(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "slice-000007.raw")
	keeper := filepath.Join(dir, "notes.txt")
	for _, p := range []string{orphan, keeper} {
		if err := os.WriteFile(p, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	b, err := NewBurstBuffer(dir, DefaultModel(), d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned slice file survived construction: %v", err)
	}
	if _, err := os.Stat(keeper); err != nil {
		t.Fatalf("unrelated file removed: %v", err)
	}
	// The fresh buffer numbers slices from zero and works normally.
	id, err := PutSliceOf(b, grid.NewField3D(4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GetSliceOf[float64](b, id); err != nil {
		t.Fatal(err)
	}
	if err := b.Drop(id); err != nil {
		t.Fatal(err)
	}
}
