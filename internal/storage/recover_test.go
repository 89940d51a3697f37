package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stwave/internal/codec"
	"stwave/internal/core"
	"stwave/internal/faultio"
	"stwave/internal/grid"
)

// fastRetry is a retry policy with negligible real sleeping for tests.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{Attempts: attempts, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
}

// buildFramed writes a v3 container of numWindows windows at path and
// returns each window's exact serialized payload bytes, for bit-identical
// comparison after recovery.
func buildFramed(t testing.TB, path string, numWindows int) [][]byte {
	t.Helper()
	return buildFramedCodec(t, path, numWindows, nil)
}

// buildFramedCodec is buildFramed with an explicit coefficient backend
// (nil means the default sparse codec).
func buildFramedCodec(t testing.TB, path string, numWindows int, cdc codec.Codec) [][]byte {
	t.Helper()
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	opts := core.DefaultOptions()
	opts.WindowSize = 4
	opts.Ratio = 8
	opts.Codec = cdc
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, 0, numWindows)
	for wi := 0; wi < numWindows; wi++ {
		win := grid.NewWindow(d)
		for ts := 0; ts < 4; ts++ {
			f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
			for i := range f.Data {
				f.Data[i] = float64(wi*1000+ts) + float64(i%17)*0.25
			}
			if err := win.Append(f, float64(wi*4+ts)); err != nil {
				t.Fatal(err)
			}
		}
		cw, err := core.Compress(context.Background(), comp, win, core.Copy)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := cw.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, bytes.Clone(buf.Bytes()))
		if _, err := w.Append(cw); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return payloads
}

// recordBoundaries returns the byte offset of the end of each record:
// boundaries[k] is where record k ends (and record k+1 begins), with
// boundaries[0] == 0 meaning "before any record".
func recordBoundaries(payloads [][]byte) []int64 {
	b := []int64{0}
	pos := int64(0)
	for _, p := range payloads {
		pos += core.RecordHeaderSize + int64(len(p))
		b = append(b, pos)
	}
	return b
}

// truncatedCopy copies src into dir truncated to size bytes.
func truncatedCopy(t *testing.T, src string, size int64, name string) string {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if size > int64(len(raw)) {
		t.Fatalf("truncation size %d beyond file size %d", size, len(raw))
	}
	dst := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(dst, raw[:size], 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// checkRecovered recovers path and asserts it yields exactly
// payloads[:want], bit-identical to the originals.
func checkRecovered(t *testing.T, path string, payloads [][]byte, want int) {
	t.Helper()
	if want == 0 {
		if _, err := RecoverContainerOpts(path, RecoverOptions{}); err == nil {
			t.Fatalf("recovering a container with zero durable frames should fail")
		}
		return
	}
	rep, err := RecoverContainerOpts(path, RecoverOptions{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Good != want || len(rep.Corrupt) != 0 {
		t.Fatalf("recover report: %d good, %v corrupt; want %d good", rep.Good, rep.Corrupt, want)
	}
	r, err := OpenContainer(path)
	if err != nil {
		t.Fatalf("open after recover: %v", err)
	}
	defer r.Close()
	if r.NumWindows() != want {
		t.Fatalf("recovered %d windows, want %d", r.NumWindows(), want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want; i++ {
		got := raw[r.offsets[i] : r.offsets[i]+r.lengths[i]]
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("window %d payload not bit-identical after recovery", i)
		}
		if _, err := r.ReadWindow(i); err != nil {
			t.Fatalf("reading recovered window %d: %v", i, err)
		}
	}
}

// TestRecoveryMatrix is the ISSUE acceptance matrix: a 6-window
// container truncated at every record boundary and at mid-record
// offsets must recover exactly the windows whose frames are fully on
// disk, bit-identical to the originals.
func TestRecoveryMatrix(t *testing.T) {
	src := filepath.Join(t.TempDir(), "full.stw")
	payloads := buildFramed(t, src, 6)
	bounds := recordBoundaries(payloads)

	// Truncate at every record boundary: exactly k windows survive.
	for k := 0; k <= 6; k++ {
		t.Run(fmt.Sprintf("boundary-%d", k), func(t *testing.T) {
			path := truncatedCopy(t, src, bounds[k], "trunc.stw")
			checkRecovered(t, path, payloads, k)
		})
	}

	// Mid-record truncations: the torn record is dropped, everything
	// before it survives.
	midCuts := []struct {
		name string
		size int64
		want int
	}{
		{"mid-header", bounds[2] + 10, 2},                           // 10 bytes into record 2's frame header
		{"early-payload", bounds[3] + core.RecordHeaderSize + 7, 3}, // 7 bytes into record 3's payload
		{"late-payload", bounds[5] - 1, 4},                          // one byte short of record 4's end
		{"mid-payload", bounds[1] + core.RecordHeaderSize + int64(len(payloads[1]))/2, 1},
	}
	for _, tc := range midCuts {
		t.Run(tc.name, func(t *testing.T) {
			path := truncatedCopy(t, src, tc.size, "torn.stw")
			checkRecovered(t, path, payloads, tc.want)
		})
	}

	// Truncation inside the footer index: all 6 windows survive.
	st, err := os.Stat(src)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("mid-index", func(t *testing.T) {
		path := truncatedCopy(t, src, st.Size()-5, "noindex.stw")
		if _, err := OpenContainer(path); err == nil {
			t.Fatal("torn footer should not open")
		}
		checkRecovered(t, path, payloads, 6)
	})
}

// TestRecoveryMatrixEntropy is the entropy-container row of the
// recovery matrix: torn-tail recovery and payload-corruption detection
// behave identically for entropy-coded windows, and the scan report
// classifies the frames by codec.
func TestRecoveryMatrixEntropy(t *testing.T) {
	src := filepath.Join(t.TempDir(), "entropy.stw")
	payloads := buildFramedCodec(t, src, 6, codec.Entropy())
	bounds := recordBoundaries(payloads)

	t.Run("mid-payload-truncation", func(t *testing.T) {
		// Tear 7 bytes into record 3's payload: windows 0..2 survive
		// bit-identical and decode through the entropy backend.
		path := truncatedCopy(t, src, bounds[3]+core.RecordHeaderSize+7, "torn.stw")
		checkRecovered(t, path, payloads, 3)
	})

	t.Run("payload-bit-flip", func(t *testing.T) {
		path := truncatedCopy(t, src, bounds[6], "flip.stw")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[bounds[2]+core.RecordHeaderSize+int64(len(payloads[2]))/2] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := f.Stat()
		rep, err := ScanContainer(f, st.Size())
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Good != 5 || len(rep.Corrupt) != 1 || rep.Corrupt[0] != 2 {
			t.Fatalf("scan: %d good, corrupt %v; want 5 good, corrupt [2]", rep.Good, rep.Corrupt)
		}
		// The scan classifies the frames by codec; the corrupt window's
		// header is intact, so it too reports as entropy.
		for i, fr := range rep.Frames {
			if fr.Codec != "entropy" {
				t.Errorf("frame %d codec %q, want entropy", i, fr.Codec)
			}
		}
	})
}

// TestRecoverySectionCorruption corrupts each section of a container —
// payload, index, footer — and checks detection and repair behaviour.
func TestRecoverySectionCorruption(t *testing.T) {
	newContainer := func(t *testing.T) (string, [][]byte) {
		path := filepath.Join(t.TempDir(), "c.stw")
		return path, buildFramed(t, path, 6)
	}
	flip := func(t *testing.T, path string, off int64) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[off] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("payload-bit-flip", func(t *testing.T) {
		path, payloads := newContainer(t)
		bounds := recordBoundaries(payloads)
		// Flip a bit in the middle of window 2's payload. The footer still
		// matches the journal (frame CRCs are unchanged), so the scan flags
		// the window without needing a repair, and degraded readers can
		// still reach the other five windows.
		flip(t, path, bounds[2]+core.RecordHeaderSize+int64(len(payloads[2]))/2)
		rep, err := RecoverContainerOpts(path, RecoverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.NeedsRepair() {
			t.Error("payload corruption alone should not dirty the footer")
		}
		if rep.Good != 5 || len(rep.Corrupt) != 1 || rep.Corrupt[0] != 2 {
			t.Fatalf("report: %d good, corrupt %v; want 5 good, corrupt [2]", rep.Good, rep.Corrupt)
		}
		r, err := OpenContainer(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := r.ReadWindow(2); !errors.Is(err, ErrCorrupt) {
			t.Errorf("ReadWindow(2) = %v, want ErrCorrupt", err)
		}
		for _, i := range []int{0, 1, 3, 4, 5} {
			if _, err := r.ReadWindow(i); err != nil {
				t.Errorf("intact window %d unreadable: %v", i, err)
			}
		}
	})

	t.Run("index-bit-flip", func(t *testing.T) {
		path, payloads := newContainer(t)
		bounds := recordBoundaries(payloads)
		// Corrupt an offset in the footer index. Either open-time index
		// validation rejects it or the CRC catches the misdirected read;
		// in both cases repair rebuilds a working index from the journal.
		flip(t, path, bounds[6]+3)
		if r, err := OpenContainer(path); err == nil {
			nBad := 0
			for i := 0; i < r.NumWindows(); i++ {
				if _, err := r.ReadWindow(i); err != nil {
					nBad++
				}
			}
			r.Close()
			if nBad == 0 {
				t.Fatal("corrupt index neither rejected nor detected")
			}
		}
		checkRecovered(t, path, payloads, 6)
	})

	t.Run("footer-magic-flip", func(t *testing.T) {
		path, payloads := newContainer(t)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		flip(t, path, st.Size()-1) // inside the magic
		if _, err := OpenContainer(path); err == nil {
			t.Fatal("bad footer magic should not open")
		}
		checkRecovered(t, path, payloads, 6)
	})

	t.Run("repair-idempotent", func(t *testing.T) {
		path, payloads := newContainer(t)
		bounds := recordBoundaries(payloads)
		p := truncatedCopy(t, path, bounds[4]+11, "t.stw")
		checkRecovered(t, p, payloads, 4)
		rep, err := RecoverContainerOpts(p, RecoverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.NeedsRepair() {
			t.Error("second recovery should be a no-op")
		}
		checkRecovered(t, p, payloads, 4)
	})
}

// TestRecoverBadFrameHeader is the reviewer's reproduction: one flipped
// bit in a mid-journal frame header must not cost the later windows. The
// scan resyncs from the still-valid footer, repair rewrites the damaged
// header in place, and all windows stay readable — no truncation.
func TestRecoverBadFrameHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "badhdr.stw")
	payloads := buildFramed(t, path, 4)
	bounds := recordBoundaries(payloads)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	origSize := int64(len(raw))
	raw[bounds[1]+1] ^= 0x01 // inside window 1's frame header magic
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The scan must see past the bad header via the footer: all 4 windows
	// located, one damaged header, footer consistent, repair needed.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ScanContainer(f, origSize)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Good != 4 || len(rep.Corrupt) != 0 || !rep.FooterOK {
		t.Fatalf("scan: %d good, corrupt %v, footerOK %v; want 4 good via footer resync", rep.Good, rep.Corrupt, rep.FooterOK)
	}
	if len(rep.BadHeaders) != 1 || rep.BadHeaders[0] != 1 || rep.Frames[1].State != FrameBadHeader {
		t.Fatalf("scan: bad headers %v, frame 1 state %v; want [1], bad-header", rep.BadHeaders, rep.Frames[1].State)
	}
	if !rep.NeedsRepair() {
		t.Fatal("damaged journal header must need repair")
	}

	// Repair rewrites the header; every window survives bit-identical.
	checkRecovered(t, path, payloads, 4)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != origSize {
		t.Errorf("repair changed file size %d -> %d; header rewrite must not truncate", origSize, st.Size())
	}
	if _, err := os.Stat(path + ".tail.bak"); !os.IsNotExist(err) {
		t.Error("header rewrite created a tail backup; nothing was dropped")
	}

	// The journal itself is whole again: a rescan is clean.
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = ScanContainer(f, st.Size())
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.NeedsRepair() || len(rep.BadHeaders) != 0 {
		t.Errorf("post-repair scan: needsRepair=%v badHeaders=%v", rep.NeedsRepair(), rep.BadHeaders)
	}
}

// TestRecoverRefusesDestructiveTruncation: when the journal scan stops
// early AND the footer cannot be validated, repair must not silently
// truncate the windows the footer still claims — it refuses without
// Force, and with Force it backs the dropped tail up first.
func TestRecoverRefusesDestructiveTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "force.stw")
	payloads := buildFramed(t, path, 4)
	bounds := recordBoundaries(payloads)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	origSize := int64(len(raw))
	raw[bounds[2]+1] ^= 0x01                  // window 2's frame header: scan stops here
	raw[bounds[4]+3*indexEntrySize+2] ^= 0x01 // footer entry 3's offset: resync impossible
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := RecoverContainerOpts(path, RecoverOptions{}); err == nil {
		t.Fatal("repair must refuse to truncate data an unvalidatable footer still claims")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != origSize {
		t.Fatalf("refused repair still modified the file: %d -> %d bytes", origSize, st.Size())
	}

	// Forced: the durable prefix is recovered and the dropped tail is
	// backed up byte-for-byte.
	rep, err := RecoverContainerOpts(path, RecoverOptions{Force: true})
	if err != nil {
		t.Fatalf("forced recover: %v", err)
	}
	if rep.Good != 2 {
		t.Fatalf("forced recover found %d good windows, want 2", rep.Good)
	}
	bak, err := os.ReadFile(path + ".tail.bak")
	if err != nil {
		t.Fatalf("tail backup missing: %v", err)
	}
	if !bytes.Equal(bak, raw[bounds[2]:]) {
		t.Errorf("tail backup is not the dropped bytes (%d bytes, want %d)", len(bak), origSize-bounds[2])
	}
	checkRecovered(t, path, payloads, 2)
}

// TestScanRetriesTransientReads: the scan path retries transient read
// errors like the read and write paths do, and propagates persistent
// read errors instead of misclassifying healthy frames as corrupt.
func TestScanRetriesTransientReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scanretry.stw")
	buildFramed(t, path, 2)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	ff := faultio.Wrap(f)

	ff.FailReads(2)
	rep, err := ScanContainer(ff, st.Size())
	if err != nil {
		t.Fatalf("scan with transient read errors: %v", err)
	}
	if rep.Good != 2 || len(rep.Corrupt) != 0 {
		t.Errorf("scan under transient errors: %d good, corrupt %v; want 2 good", rep.Good, rep.Corrupt)
	}

	ff.FailReads(50)
	if _, err := ScanContainer(ff, st.Size()); err == nil {
		t.Fatal("persistent read errors must propagate, not classify frames corrupt")
	}
}

// TestScanLegacyContainer: v2 containers (no frames) are recognized,
// verified against their index, and refused for repair.
func TestScanLegacyContainer(t *testing.T) {
	src := filepath.Join(t.TempDir(), "v3.stw")
	payloads := buildFramed(t, src, 3)

	// Assemble a legacy v2 image: bare payloads, index, "STWX" footer.
	var img bytes.Buffer
	offsets := make([]int64, len(payloads))
	pos := int64(0)
	for i, p := range payloads {
		offsets[i] = pos
		img.Write(p)
		pos += int64(len(p))
	}
	idx := make([]byte, indexEntrySize*len(payloads)+footerSize)
	for i, p := range payloads {
		binary.LittleEndian.PutUint64(idx[indexEntrySize*i:], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(idx[indexEntrySize*i+8:], uint64(len(p)))
		binary.LittleEndian.PutUint32(idx[indexEntrySize*i+16:], crc32.ChecksumIEEE(p))
	}
	tail := idx[indexEntrySize*len(payloads):]
	binary.LittleEndian.PutUint64(tail[0:8], uint64(len(payloads)))
	copy(tail[8:12], containerMagicV2[:])
	img.Write(idx)
	path := filepath.Join(t.TempDir(), "v2.stw")
	if err := os.WriteFile(path, img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenContainer(path)
	if err != nil {
		t.Fatalf("legacy open: %v", err)
	}
	if r.framed {
		t.Error("v2 container misdetected as framed")
	}
	for i := range payloads {
		if _, err := r.ReadWindow(i); err != nil {
			t.Errorf("legacy window %d: %v", i, err)
		}
	}
	r.Close()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	rep, err := ScanContainer(f, st.Size())
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Legacy || rep.Good != 3 || rep.NeedsRepair() {
		t.Errorf("legacy scan: legacy=%v good=%d needsRepair=%v", rep.Legacy, rep.Good, rep.NeedsRepair())
	}
	if _, err := RecoverContainerOpts(path, RecoverOptions{}); err == nil {
		t.Error("repairing a legacy container must be refused")
	}
}

// TestIndexValidation: OpenContainer must reject indices whose entries
// are out of range or overlapping, instead of failing later with a
// confusing read error.
func TestIndexValidation(t *testing.T) {
	src := filepath.Join(t.TempDir(), "v.stw")
	payloads := buildFramed(t, src, 3)
	bounds := recordBoundaries(payloads)
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	idxStart := bounds[3]

	mutate := func(t *testing.T, name string, f func(img []byte)) {
		t.Helper()
		img := bytes.Clone(raw)
		f(img)
		path := filepath.Join(t.TempDir(), "bad.stw")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenContainer(path); err == nil {
			t.Errorf("%s: corrupt index accepted", name)
		}
	}

	mutate(t, "offset-overlaps-previous", func(img []byte) {
		// Point entry 1 at entry 0's payload.
		copy(img[idxStart+indexEntrySize:], img[idxStart:idxStart+8])
	})
	mutate(t, "length-past-data-region", func(img []byte) {
		binary.LittleEndian.PutUint64(img[idxStart+8:], uint64(len(img)))
	})
	mutate(t, "negative-offset", func(img []byte) {
		binary.LittleEndian.PutUint64(img[idxStart+indexEntrySize:], ^uint64(0)-7)
	})
	mutate(t, "offset-inside-frame-header", func(img []byte) {
		// Payload offsets in a framed container must leave room for the
		// 20-byte frame header before them.
		binary.LittleEndian.PutUint64(img[idxStart:], 5)
	})
	mutate(t, "huge-window-count", func(img []byte) {
		binary.LittleEndian.PutUint64(img[len(img)-12:], ^uint64(0)/2)
	})
}

// TestFaultInjectionWritePath drives the writer through the faultio
// harness: transient errors retry, torn and short writes sticky-fail.
func TestFaultInjectionWritePath(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	opts := core.DefaultOptions()
	opts.WindowSize = 3
	opts.Ratio = 8
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := core.Compress(context.Background(), comp, testWindow(d, 3), core.Copy)
	if err != nil {
		t.Fatal(err)
	}

	newWriter := func(t *testing.T) (*ContainerWriter, *faultio.File, string) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "f.stw")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		ff := faultio.Wrap(f)
		w := NewContainerWriter(ff)
		w.Retry = fastRetry(3)
		return w, ff, path
	}

	t.Run("transient-write-retries", func(t *testing.T) {
		w, ff, path := newWriter(t)
		ff.FailWrites(2) // two transient failures, third attempt lands
		if _, err := w.Append(cw); err != nil {
			t.Fatalf("append with retries: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenContainer(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := r.ReadWindow(0); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("transient-exhaustion-is-sticky", func(t *testing.T) {
		w, ff, _ := newWriter(t)
		if _, err := w.Append(cw); err != nil {
			t.Fatal(err)
		}
		ff.FailWrites(10) // more failures than attempts
		_, err := w.Append(cw)
		if err == nil {
			t.Fatal("append should fail after retry exhaustion")
		}
		if _, err2 := w.Append(cw); !errors.Is(err2, err) && err2.Error() != err.Error() {
			t.Errorf("second append after failure: %v, want sticky %v", err2, err)
		}
		if cerr := w.Close(); cerr == nil {
			t.Error("close after sticky append error must fail")
		}
	})

	t.Run("torn-write-recovers-durable-prefix", func(t *testing.T) {
		w, ff, path := newWriter(t)
		if _, err := w.Append(cw); err != nil {
			t.Fatal(err)
		}
		end1 := w.pos
		ff.TearAt(end1 + 31) // tear 31 bytes into window 1's record
		if _, err := w.Append(cw); err == nil {
			t.Fatal("torn append should fail")
		}
		w.Close() // returns the sticky error; file keeps the journal
		checkRecoveredCount(t, path, 1)
	})

	t.Run("short-write-recovers-durable-prefix", func(t *testing.T) {
		w, ff, path := newWriter(t)
		if _, err := w.Append(cw); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(cw); err != nil {
			t.Fatal(err)
		}
		ff.ShortWrite(13)
		if _, err := w.Append(cw); err == nil {
			t.Fatal("short write should fail")
		}
		w.Close()
		checkRecoveredCount(t, path, 2)
	})

	t.Run("sync-failure-is-sticky", func(t *testing.T) {
		w, ff, _ := newWriter(t)
		w.Sync = SyncPerWindow
		w.Retry = fastRetry(1)
		ff.FailSyncs(1)
		if _, err := w.Append(cw); err == nil {
			t.Fatal("append with failing fsync should fail under SyncPerWindow")
		}
		if _, err := w.Append(cw); err == nil {
			t.Fatal("sticky error expected")
		}
	})

	t.Run("sync-failure-drops-unacked-record", func(t *testing.T) {
		w, ff, path := newWriter(t)
		w.Sync = SyncPerWindow
		if _, err := w.Append(cw); err != nil {
			t.Fatal(err)
		}
		ff.FailSyncs(10) // exhausts the retries
		if _, err := w.Append(cw); err == nil {
			t.Fatal("append with failing fsync should fail under SyncPerWindow")
		}
		w.Close()
		// The second record was fully written before the fsync failed, but
		// the caller was told the append failed and may rewrite the window
		// into a new container — recovery must not resurrect it.
		checkRecoveredCount(t, path, 1)
	})
}

// checkRecoveredCount recovers path and asserts the window count.
func checkRecoveredCount(t *testing.T, path string, want int) {
	t.Helper()
	if _, err := RecoverContainerOpts(path, RecoverOptions{}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	r, err := OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumWindows() != want {
		t.Fatalf("recovered %d windows, want %d", r.NumWindows(), want)
	}
	for i := 0; i < want; i++ {
		if _, err := r.ReadWindow(i); err != nil {
			t.Errorf("window %d: %v", i, err)
		}
	}
}

// TestFaultInjectionReadPath: transient read errors are retried; bit
// flips injected on the read path surface as ErrCorrupt.
func TestFaultInjectionReadPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.stw")
	buildFramed(t, path, 2)
	open := func(t *testing.T) (*ContainerReader, *faultio.File) {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		ff := faultio.Wrap(f)
		r, err := NewContainerReader(ff, st.Size())
		if err != nil {
			t.Fatal(err)
		}
		r.Retry = fastRetry(3)
		return r, ff
	}

	t.Run("transient-read-retries", func(t *testing.T) {
		r, ff := open(t)
		defer r.Close()
		ff.FailReads(2)
		if _, err := r.ReadWindow(0); err != nil {
			t.Fatalf("read with retries: %v", err)
		}
	})

	t.Run("transient-exhaustion-fails", func(t *testing.T) {
		r, ff := open(t)
		defer r.Close()
		ff.FailReads(10)
		_, err := r.ReadWindow(0)
		if err == nil {
			t.Fatal("read should fail after retry exhaustion")
		}
		// Not a corruption: the bytes were never seen.
		if errors.Is(err, ErrCorrupt) {
			t.Errorf("transient failure reported as corruption: %v", err)
		}
	})

	t.Run("read-bit-flip-detected", func(t *testing.T) {
		r, ff := open(t)
		defer r.Close()
		ff.FlipBitAt(r.offsets[1] + 50)
		if _, err := r.ReadWindow(1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped read = %v, want ErrCorrupt", err)
		}
		// Window 0 is untouched.
		if _, err := r.ReadWindow(0); err != nil {
			t.Errorf("intact window: %v", err)
		}
	})
}

// TestSyncPolicies counts fsync calls per policy through the harness.
func TestSyncPolicies(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	opts := core.DefaultOptions()
	opts.WindowSize = 2
	opts.Ratio = 8
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := core.Compress(context.Background(), comp, testWindow(d, 2), core.Copy)
	if err != nil {
		t.Fatal(err)
	}
	syncsFor := func(t *testing.T, pol SyncPolicy) int {
		t.Helper()
		f, err := os.Create(filepath.Join(t.TempDir(), "s.stw"))
		if err != nil {
			t.Fatal(err)
		}
		ff := faultio.Wrap(f)
		w := NewContainerWriter(ff)
		w.Sync = pol
		for i := 0; i < 3; i++ {
			if _, err := w.Append(cw); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, syncs := ff.Counts()
		return syncs
	}
	if n := syncsFor(t, SyncNever); n != 0 {
		t.Errorf("SyncNever issued %d fsyncs", n)
	}
	// Per-window: one per append, plus the data+index syncs in Close.
	if n := syncsFor(t, SyncPerWindow); n != 5 {
		t.Errorf("SyncPerWindow issued %d fsyncs, want 5", n)
	}
	if n := syncsFor(t, SyncOnClose); n != 2 {
		t.Errorf("SyncOnClose issued %d fsyncs, want 2", n)
	}
}

// TestAtomicClose: the final path only ever holds a complete container.
func TestAtomicClose(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	opts := core.DefaultOptions()
	opts.WindowSize = 2
	opts.Ratio = 8
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := core.Compress(context.Background(), comp, testWindow(d, 2), core.Copy)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("success", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "a.stw")
		w, err := CreateContainerAtomic(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(cw); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Error("final path exists before Close")
		}
		if _, err := os.Stat(path + ".tmp"); err != nil {
			t.Errorf("staging file missing during write: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Error("staging file left behind after Close")
		}
		r, err := OpenContainer(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.NumWindows() != 1 {
			t.Errorf("NumWindows = %d", r.NumWindows())
		}
	})

	t.Run("failed-append-removes-staging", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "b.stw")
		w, err := CreateContainerAtomic(path)
		if err != nil {
			t.Fatal(err)
		}
		w.Retry = fastRetry(1)
		if _, err := w.Append(cw); err != nil {
			t.Fatal(err)
		}
		// Force a sticky error by closing the underlying file behind the
		// writer's back: the next append fails hard.
		w.f.Close()
		if _, err := w.Append(cw); err == nil {
			t.Fatal("append to closed file should fail")
		}
		if err := w.Close(); err == nil {
			t.Fatal("close after sticky error should fail")
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Error("final path exists after failed atomic write")
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Error("staging file left behind after failed atomic write")
		}
	})
}

// TestRetryPolicy exercises the backoff loop directly.
func TestRetryPolicy(t *testing.T) {
	var slept []time.Duration
	p := RetryPolicy{Attempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 25 * time.Millisecond,
		sleep: func(d time.Duration) { slept = append(slept, d) }}

	calls := 0
	err := p.Do(func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("wrapped: %w", errTransientTest{})
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls", err, calls)
	}
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Errorf("backoff schedule %v", slept)
	}

	// Backoff caps at MaxDelay.
	slept = nil
	calls = 0
	p.Do(func() error { calls++; return errTransientTest{} })
	if calls != 4 {
		t.Errorf("exhaustion ran %d attempts, want 4", calls)
	}
	if len(slept) != 3 || slept[2] != 25*time.Millisecond {
		t.Errorf("capped schedule %v", slept)
	}

	// Permanent errors do not retry.
	calls = 0
	perm := errors.New("permanent")
	if err := p.Do(func() error { calls++; return perm }); !errors.Is(err, perm) || calls != 1 {
		t.Errorf("permanent error retried: %v after %d calls", err, calls)
	}

	// Zero policy never retries.
	calls = 0
	RetryPolicy{}.Do(func() error { calls++; return errTransientTest{} })
	if calls != 1 {
		t.Errorf("zero policy ran %d attempts", calls)
	}
}

type errTransientTest struct{}

func (errTransientTest) Error() string   { return "transient test error" }
func (errTransientTest) Transient() bool { return true }
