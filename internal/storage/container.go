package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"stwave/internal/core"
	"stwave/internal/obs"
)

// Container file format v3: a journal of record-framed compressed
// windows followed by a footer index enabling random access to any
// window (the capability the paper notes is otherwise lost with temporal
// compression).
//
//	record 0: frame header (core.RecordHeaderSize bytes) + window 0 bytes
//	record 1: frame header + window 1 bytes
//	...
//	index: numWindows * (payload offset uint64, length uint64, crc32 uint32)
//	footer: numWindows uint64, magic "STW3"
//
// Every record is self-delimiting (magic, length, payload CRC, header
// CRC — see core/record.go), so the data region is a valid journal at
// every byte boundary: a crash before Close loses at most the window
// being written, and RecoverContainerOpts rebuilds the index from the frames
// alone. Index entries carry a CRC32 of their window's payload so silent
// corruption is detected at read time.
//
// Format v2 ("STWX" footer, no record frames) is still readable; it
// cannot be scanned for recovery.
var (
	containerMagic   = [4]byte{'S', 'T', 'W', '3'}
	containerMagicV2 = [4]byte{'S', 'T', 'W', 'X'}
)

const (
	indexEntrySize = 20
	footerSize     = 12
)

// ErrCorrupt tags window reads that failed their checksum; callers use
// errors.Is to distinguish data loss (degraded-mode candidates) from
// transient I/O failures.
var ErrCorrupt = errors.New("storage: window corrupt")

// SyncPolicy says when a ContainerWriter calls fsync. Durability is a
// spectrum: in-situ runs appending from a live simulation want
// SyncPerWindow so a node failure loses at most the window in flight;
// offline re-compressions can take SyncNever and rely on the OS.
type SyncPolicy int

const (
	// SyncNever issues no fsync; the OS flushes when it pleases.
	SyncNever SyncPolicy = iota
	// SyncPerWindow fsyncs after every appended window, bounding loss on
	// power failure to the window being written.
	SyncPerWindow
	// SyncOnClose fsyncs once, before the footer is finalized in Close.
	SyncOnClose
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncPerWindow:
		return "window"
	case SyncOnClose:
		return "close"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the -fsync flag spellings.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "never":
		return SyncNever, nil
	case "window", "per-window":
		return SyncPerWindow, nil
	case "close", "on-close":
		return SyncOnClose, nil
	}
	return 0, fmt.Errorf("storage: unknown fsync policy %q (want never, window, or close)", s)
}

// WritableFile is the file surface ContainerWriter needs. *os.File
// satisfies it; faultio.File wraps it with injected faults for the
// crash-recovery test matrix.
type WritableFile interface {
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// ContainerWriter appends compressed windows to a file as framed journal
// records. Configure the exported fields before the first Append.
type ContainerWriter struct {
	// Sync is the fsync policy (default SyncNever).
	Sync SyncPolicy
	// Retry governs transient write-error retries (default
	// DefaultRetryPolicy; zero value disables retries).
	Retry RetryPolicy

	f       WritableFile
	path    string // final path (atomic mode); "" otherwise
	tmpPath string // staging path (atomic mode); "" otherwise
	offsets []int64
	lengths []int64
	crcs    []uint32
	pos     int64
	buf     bytes.Buffer
	closed  bool
	err     error // sticky: set by a failed Append, fails all later calls
}

// CreateContainer opens a new container file for writing (truncating any
// existing file). Windows are journaled directly at path, so a crash
// leaves a footer-less container that RecoverContainerOpts can rebuild.
func CreateContainer(path string) (*ContainerWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewContainerWriter(f), nil
}

// CreateContainerAtomic stages the container at path+".tmp" and renames
// it over path in Close, so the final path only ever holds a complete,
// indexed container. A crash leaves the journal at the staging path for
// RecoverContainerOpts. The rename is fsync-backed when Sync != SyncNever.
func CreateContainerAtomic(path string) (*ContainerWriter, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := NewContainerWriter(f)
	w.path = path
	w.tmpPath = tmp
	return w, nil
}

// NewContainerWriter writes a container to an already-open file. The
// writer owns f (Close closes it). Atomic finalize is unavailable on
// this path — the writer has no path to rename.
func NewContainerWriter(f WritableFile) *ContainerWriter {
	return &ContainerWriter{f: f, Retry: DefaultRetryPolicy()}
}

// writeAt writes buf at off, retrying transient errors per the policy.
// The write is positional, so a retry after a partial write simply lays
// the full buffer down again. Successful writes record their latency and
// byte count in the process-wide metrics registry.
func (w *ContainerWriter) writeAt(buf []byte, off int64) error {
	start := time.Now()
	err := w.Retry.Do(func() error {
		_, err := w.f.WriteAt(buf, off)
		return err
	})
	if err == nil {
		obs.Default().Histogram("storage.write_seconds").ObserveSince(start)
		obs.Default().Counter("storage.write_bytes_total").Add(int64(len(buf)))
	}
	return err
}

// syncFile fsyncs the container file, retrying transient errors and
// recording the latency of successful syncs — the fsync histogram is how
// operators see an over-aggressive -fsync policy costing throughput.
func (w *ContainerWriter) syncFile() error {
	start := time.Now()
	err := w.Retry.Do(w.f.Sync)
	if err == nil {
		obs.Default().Histogram("storage.fsync_seconds").ObserveSince(start)
	}
	return err
}

// Append writes one compressed window as a framed record and returns its
// index. A failed Append (after retries) makes the writer sticky-fail:
// the half-written record is not indexed, its bytes are truncated away
// best-effort, and every later Append or Close returns the same error —
// the caller must not keep appending past a hole in the journal.
func (w *ContainerWriter) Append(cw *core.CompressedWindow) (int, error) {
	return w.AppendCtx(context.Background(), cw)
}

// AppendCtx is Append with context propagation: when ctx carries a trace,
// the encode+write of the record is captured as a "storage.append_window"
// span carrying the payload size.
func (w *ContainerWriter) AppendCtx(ctx context.Context, cw *core.CompressedWindow) (int, error) {
	_, sp := obs.Start(ctx, "storage.append_window")
	defer sp.End()
	if w.closed {
		return 0, fmt.Errorf("storage: container already closed")
	}
	if w.err != nil {
		return 0, w.err
	}
	w.buf.Reset()
	w.buf.Write(make([]byte, core.RecordHeaderSize)) // frame placeholder
	if _, err := cw.WriteTo(&w.buf); err != nil {
		return 0, fmt.Errorf("storage: encoding window: %w", err)
	}
	rec := w.buf.Bytes()
	sp.SetAttr("bytes", strconv.Itoa(len(rec)-core.RecordHeaderSize))
	return w.appendRecord("window")
}

// AppendGap journals a gap marker in place of a shed window: the marker
// rides the same record framing and footer index as a compressed window,
// so every downstream consumer (recovery scan, fsck, timeline layout)
// accounts for the dropped slices without the timeline ever shifting.
// Returns the entry index. Failure semantics match Append (sticky error,
// best-effort trim).
func (w *ContainerWriter) AppendGap(g core.GapMarker) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("storage: container already closed")
	}
	if w.err != nil {
		return 0, w.err
	}
	w.buf.Reset()
	w.buf.Write(make([]byte, core.RecordHeaderSize)) // frame placeholder
	payload := g.Encode()
	w.buf.Write(payload[:])
	obs.Default().Counter("storage.gaps_appended_total." + g.Reason.String()).Add(1)
	return w.appendRecord("gap marker")
}

// appendRecord frames w.buf (record-header placeholder + payload) as a
// journal record, writes it at the tail, applies the per-window sync
// policy, and indexes it. what names the entry kind in errors.
func (w *ContainerWriter) appendRecord(what string) (int, error) {
	rec := w.buf.Bytes()
	payload := rec[core.RecordHeaderSize:]
	crc := crc32.ChecksumIEEE(payload)
	hdr := core.EncodeRecordHeader(core.RecordHeader{Length: int64(len(payload)), PayloadCRC: crc})
	copy(rec[:core.RecordHeaderSize], hdr[:])
	if err := w.writeAt(rec, w.pos); err != nil {
		w.err = fmt.Errorf("storage: appending %s %d: %w", what, len(w.offsets), err)
		// Drop any torn prefix so the durable journal ends at a record
		// boundary; recovery scans cope even if this fails.
		w.f.Truncate(w.pos) //stlint:ignore uncheckederr best-effort trim; recovery scans cope with a torn tail
		return 0, w.err
	}
	if w.Sync == SyncPerWindow {
		if err := w.syncFile(); err != nil {
			w.err = fmt.Errorf("storage: syncing %s %d: %w", what, len(w.offsets), err)
			// The record is fully written but its durability was never
			// acknowledged: drop it, as on the write-failure path, so a
			// later recovery scan cannot resurrect a window the caller
			// was told failed (and may have rewritten elsewhere).
			w.f.Truncate(w.pos) //stlint:ignore uncheckederr best-effort trim; the caller was already told the append failed
			return 0, w.err
		}
	}
	w.offsets = append(w.offsets, w.pos+core.RecordHeaderSize)
	w.lengths = append(w.lengths, int64(len(payload)))
	w.crcs = append(w.crcs, crc)
	w.pos += int64(len(rec))
	return len(w.offsets) - 1, nil
}

// ClearError re-arms a sticky-failed writer so a backpressure policy can
// retry: a transient ENOSPC or EIO that failed an Append does not have to
// end the whole ingest run. It succeeds only if the journal can be proven
// to end at the last acknowledged record boundary — the failed append's
// best-effort trim is re-attempted here, and if the file still cannot be
// truncated the error stays sticky (appending past a torn record would
// corrupt the journal).
func (w *ContainerWriter) ClearError() error {
	if w.closed {
		return fmt.Errorf("storage: container already closed")
	}
	if w.err == nil {
		return nil
	}
	if err := w.Retry.Do(func() error { return w.f.Truncate(w.pos) }); err != nil {
		return fmt.Errorf("storage: cannot re-arm writer, journal tail not trimmable: %w", err)
	}
	w.err = nil
	return nil
}

// encodeIndex serializes an index + footer for the given entries.
func encodeIndex(offsets, lengths []int64, crcs []uint32) []byte {
	buf := make([]byte, indexEntrySize*len(offsets)+footerSize)
	for i := range offsets {
		// Writer bookkeeping can never go negative; a wrapped unsigned
		// entry here would validate as a multi-exabyte window on read.
		if offsets[i] < 0 || lengths[i] < 0 {
			panic(fmt.Sprintf("storage: negative index entry %d: off=%d len=%d", i, offsets[i], lengths[i]))
		}
		binary.LittleEndian.PutUint64(buf[indexEntrySize*i:], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(buf[indexEntrySize*i+8:], uint64(lengths[i]))
		binary.LittleEndian.PutUint32(buf[indexEntrySize*i+16:], crcs[i])
	}
	tail := buf[indexEntrySize*len(offsets):]
	binary.LittleEndian.PutUint64(tail[0:8], uint64(len(offsets)))
	copy(tail[8:12], containerMagic[:])
	return buf
}

// cleanup closes the file and, on the atomic path, removes the staging
// file — a failed Close must not leave a half-finalized container behind
// (the journal is gone with it, but the caller was told the write
// failed; on the non-atomic path the journal survives for recovery).
func (w *ContainerWriter) cleanup() {
	w.f.Close()          //stlint:ignore uncheckederr cleanup after a failure already being reported
	if w.tmpPath != "" { //stlint:ignore uncheckederr staging file is disposable; Remove failure leaves only litter
		os.Remove(w.tmpPath)
	}
}

// Close finalizes the footer index and closes the file. On the atomic
// path it then renames the staging file over the final path and fsyncs
// the directory, so Close is all-or-nothing: either the complete
// container appears at path, or nothing does. After a sticky Append
// error, Close cleans up and returns that error instead of writing an
// index that lies about the journal.
func (w *ContainerWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		w.cleanup()
		return w.err
	}
	if w.Sync != SyncNever {
		if err := w.syncFile(); err != nil {
			w.cleanup()
			return fmt.Errorf("storage: syncing data region: %w", err)
		}
	}
	if err := w.writeAt(encodeIndex(w.offsets, w.lengths, w.crcs), w.pos); err != nil {
		w.cleanup()
		return fmt.Errorf("storage: writing index: %w", err)
	}
	if w.Sync != SyncNever {
		if err := w.syncFile(); err != nil {
			w.cleanup()
			return fmt.Errorf("storage: syncing index: %w", err)
		}
	}
	if err := w.f.Close(); err != nil {
		if w.tmpPath != "" {
			os.Remove(w.tmpPath) //stlint:ignore uncheckederr staging file is disposable; the Close error is what matters
		}
		return err
	}
	if w.tmpPath != "" {
		if err := os.Rename(w.tmpPath, w.path); err != nil {
			os.Remove(w.tmpPath) //stlint:ignore uncheckederr staging file is disposable; the Rename error is what matters
			return fmt.Errorf("storage: finalizing container: %w", err)
		}
		if w.Sync != SyncNever {
			syncDir(filepath.Dir(w.path))
		}
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()  //stlint:ignore uncheckederr best-effort by contract: some filesystems refuse directory fsync
	d.Close() //stlint:ignore uncheckederr read-only directory handle; nothing to flush
}

// ReadableFile is the file surface ContainerReader needs. *os.File
// satisfies it.
type ReadableFile interface {
	io.ReaderAt
	Close() error
}

// ContainerReader provides random access to the windows of a container
// file. It is safe for concurrent use: all file access goes through
// ReadAt, which carries no shared cursor. Set Retry before first use.
type ContainerReader struct {
	// Retry governs transient read-error retries (default
	// DefaultRetryPolicy). Set before the first read.
	Retry RetryPolicy

	f       ReadableFile
	size    int64
	framed  bool // v3: every window is preceded by a record frame
	offsets []int64
	lengths []int64
	crcs    []uint32
}

// OpenContainer opens a container file and reads its index.
func OpenContainer(path string) (*ContainerReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() //stlint:ignore uncheckederr read-only handle released on an error path already being reported
		return nil, err
	}
	r, err := NewContainerReader(f, st.Size())
	if err != nil {
		f.Close() //stlint:ignore uncheckederr read-only handle released on an error path already being reported
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	return r, nil
}

// NewContainerReader reads a container from an already-open file of the
// given size. The reader owns f (Close closes it). The footer index is
// validated entry by entry — offsets and lengths that are negative,
// overlap, run past the data region, or leave no room for their record
// frame are rejected here, instead of surfacing later as a confusing
// read error.
func NewContainerReader(f ReadableFile, size int64) (*ContainerReader, error) {
	if size < footerSize {
		return nil, fmt.Errorf("storage: %d bytes is too small to be a container", size)
	}
	var tail [footerSize]byte
	if _, err := f.ReadAt(tail[:], size-footerSize); err != nil {
		return nil, err
	}
	framed := false
	switch [4]byte(tail[8:12]) {
	case containerMagic:
		framed = true
	case containerMagicV2:
	default:
		return nil, fmt.Errorf("storage: bad container magic %q", tail[8:12])
	}
	numU := binary.LittleEndian.Uint64(tail[0:8])
	if numU > uint64(size)/indexEntrySize {
		return nil, fmt.Errorf("storage: corrupt container index (%d windows)", numU)
	}
	num := int(numU)
	indexSize := int64(indexEntrySize*num + footerSize)
	dataEnd := size - indexSize
	if dataEnd < 0 {
		return nil, fmt.Errorf("storage: corrupt container index (%d windows)", num)
	}
	idx := make([]byte, indexEntrySize*num)
	if _, err := f.ReadAt(idx, dataEnd); err != nil {
		return nil, err
	}
	r := &ContainerReader{
		Retry:   DefaultRetryPolicy(),
		f:       f,
		size:    size,
		framed:  framed,
		offsets: make([]int64, num),
		lengths: make([]int64, num),
		crcs:    make([]uint32, num),
	}
	var prevEnd uint64
	for i := 0; i < num; i++ {
		off := binary.LittleEndian.Uint64(idx[indexEntrySize*i:])
		ln := binary.LittleEndian.Uint64(idx[indexEntrySize*i+8:])
		minOff := prevEnd
		if framed {
			minOff += core.RecordHeaderSize
		}
		if off < minOff {
			return nil, fmt.Errorf("storage: corrupt index: window %d at offset %d overlaps previous data (need >= %d)", i, off, minOff)
		}
		if off > uint64(dataEnd) || ln > uint64(dataEnd)-off {
			return nil, fmt.Errorf("storage: corrupt index: window %d [%d, %d+%d) runs past data region (%d bytes)", i, off, off, ln, dataEnd)
		}
		r.offsets[i] = int64(off)
		r.lengths[i] = int64(ln)
		r.crcs[i] = binary.LittleEndian.Uint32(idx[indexEntrySize*i+16:])
		prevEnd = off + ln
	}
	return r, nil
}

// NumWindows returns the number of windows in the container.
func (r *ContainerReader) NumWindows() int { return len(r.offsets) }

// WindowSizeBytes returns the serialized size of window i.
func (r *ContainerReader) WindowSizeBytes(i int) (int64, error) {
	if i < 0 || i >= len(r.lengths) {
		return 0, fmt.Errorf("storage: window %d out of range [0,%d)", i, len(r.lengths))
	}
	return r.lengths[i], nil
}

// readAt fills buf from offset off, retrying transient errors.
// Successful reads record their latency and byte count in the
// process-wide metrics registry.
func (r *ContainerReader) readAt(buf []byte, off int64) error {
	start := time.Now()
	err := r.Retry.Do(func() error {
		_, err := r.f.ReadAt(buf, off)
		return err
	})
	if err == nil {
		obs.Default().Histogram("storage.read_seconds").ObserveSince(start)
		obs.Default().Counter("storage.read_bytes_total").Add(int64(len(buf)))
	}
	return err
}

// loadWindow reads and checksum-verifies window i's payload.
func (r *ContainerReader) loadWindow(i int) ([]byte, error) {
	if i < 0 || i >= len(r.offsets) {
		return nil, fmt.Errorf("storage: window %d out of range [0,%d)", i, len(r.offsets))
	}
	buf := make([]byte, r.lengths[i])
	if err := r.readAt(buf, r.offsets[i]); err != nil {
		return nil, fmt.Errorf("storage: reading window %d: %w", i, err)
	}
	if crc32.ChecksumIEEE(buf) != r.crcs[i] {
		return nil, fmt.Errorf("storage: window %d checksum mismatch: %w", i, ErrCorrupt)
	}
	return buf, nil
}

// VerifyWindow reads window i and checks its checksum without decoding
// it. Degraded mounts run this over every window to map the damage
// before serving.
func (r *ContainerReader) VerifyWindow(i int) error {
	_, err := r.loadWindow(i)
	return err
}

// ReadWindow loads window i, verifying its checksum before decoding. The
// window is read from disk exactly once: checksumming and decoding both
// operate on the same in-memory buffer. Checksum failures wrap
// ErrCorrupt.
func (r *ContainerReader) ReadWindow(i int) (*core.CompressedWindow, error) {
	return r.ReadWindowCtx(context.Background(), i)
}

// ReadWindowCtx is ReadWindow with context propagation: when ctx carries
// a trace, the read+verify+parse is captured as a "storage.read_window"
// span carrying the window index and payload size.
func (r *ContainerReader) ReadWindowCtx(ctx context.Context, i int) (*core.CompressedWindow, error) {
	_, sp := obs.Start(ctx, "storage.read_window")
	defer sp.End()
	sp.SetAttr("window", strconv.Itoa(i))
	buf, err := r.loadWindow(i)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("bytes", strconv.Itoa(len(buf)))
	if core.IsGapPayload(buf) {
		// Not corruption: the entry is a journaled gap marker. Callers
		// route on errors.Is(err, core.ErrGapWindow) and fetch the marker
		// with GapMarker(i) for timeline accounting.
		return nil, fmt.Errorf("storage: window %d: %w", i, core.ErrGapWindow)
	}
	cw, err := core.ReadCompressedWindow(bytes.NewReader(buf))
	if err != nil {
		return nil, fmt.Errorf("storage: reading window %d: %w", i, err)
	}
	return cw, nil
}

// GapMarker reads entry i as a gap marker. Entries holding a compressed
// window return an error wrapping core.ErrNotGap; use WindowInfo (whose
// Gap field is non-nil for gaps) to route without a second read.
func (r *ContainerReader) GapMarker(i int) (core.GapMarker, error) {
	buf, err := r.loadWindow(i)
	if err != nil {
		return core.GapMarker{}, err
	}
	g, err := core.ParseGapMarker(buf)
	if err != nil {
		return core.GapMarker{}, fmt.Errorf("storage: window %d: %w", i, err)
	}
	return g, nil
}

// WindowInfo parses only window i's fixed-size header: dims, slice count,
// mode. It reads 40 bytes regardless of window size, so scanning every
// window of a container to build a time index is cheap.
func (r *ContainerReader) WindowInfo(i int) (core.WindowInfo, error) {
	if i < 0 || i >= len(r.offsets) {
		return core.WindowInfo{}, fmt.Errorf("storage: window %d out of range [0,%d)", i, len(r.offsets))
	}
	sec := io.NewSectionReader(r.f, r.offsets[i], r.lengths[i])
	wi, err := core.ReadWindowInfo(sec)
	if err != nil {
		return core.WindowInfo{}, fmt.Errorf("storage: window %d: %w", i, err)
	}
	return wi, nil
}

// Close closes the underlying file.
func (r *ContainerReader) Close() error { return r.f.Close() }
