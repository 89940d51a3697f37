package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"

	"stwave/internal/core"
	"stwave/internal/obs"
)

// Partial window reads. A v4 progressive window's payload is grouped by
// detail level behind a level-offset table (core/progressive.go), so
// serving a coarse reconstruction only needs the byte prefix covering
// level groups 0..K — the finer groups are never read from disk, never
// checksummed, never decompressed. That prefix-read is what turns the
// level-major layout into an I/O saving rather than a mere reshuffle:
// for a typical window the approximation group is a few percent of the
// payload, so a level-0 preview costs a few percent of the bytes.
//
// Integrity: the footer index CRC covers the whole payload and cannot
// verify a prefix, so partial reads rely on the format's own per-group
// CRCs instead — every group that is read is verified, and the header
// and level table fail typed on any structural damage. A partial read
// therefore never updates WindowErr (it has not proven the whole window
// good or bad), except when the level table itself is unreadable.

// ReadWindowLevels reads the minimal byte prefix of window i needed to
// reconstruct detail levels 0..maxLevel and parses it into a
// CompressedWindow holding only those level groups (decode it with
// core.Reconstruct at Query.MaxLevel <= maxLevel). The second return is the number of payload
// bytes actually read — callers surface it so the bytes-saved accounting
// in /metrics is honest. Windows written in the legacy slice-major
// layout return core.ErrNotProgressive; callers fall back to ReadWindow.
func (r *ContainerReader) ReadWindowLevels(i, maxLevel int) (*core.CompressedWindow, int64, error) {
	return r.ReadWindowLevelsCtx(context.Background(), i, maxLevel)
}

// ReadWindowLevelsCtx is ReadWindowLevels with context propagation: the
// read+parse is captured as a "storage.read_window_levels" span carrying
// the window index, requested level, and bytes read vs. total.
func (r *ContainerReader) ReadWindowLevelsCtx(ctx context.Context, i, maxLevel int) (*core.CompressedWindow, int64, error) {
	_, sp := obs.Start(ctx, "storage.read_window_levels")
	defer sp.End()
	sp.SetAttr("window", strconv.Itoa(i))
	sp.SetAttr("level", strconv.Itoa(maxLevel))
	_, table, payloadStart, err := r.WindowLevelTable(i)
	if err != nil {
		return nil, 0, err
	}
	if maxLevel < 0 || maxLevel >= len(table.Extents) {
		return nil, 0, fmt.Errorf("storage: window %d: level %d out of range [0,%d)", i, maxLevel, len(table.Extents))
	}
	prefix := payloadStart + table.PrefixBytes(maxLevel)
	if prefix > r.lengths[i] {
		err := fmt.Errorf("storage: window %d: level table claims %d bytes for levels 0..%d, payload is %d: %w",
			i, prefix, maxLevel, r.lengths[i], ErrCorrupt)
		r.recordErr(i, err)
		return nil, 0, err
	}
	buf := make([]byte, prefix)
	if err := r.readAt(buf, r.offsets[i]); err != nil {
		return nil, 0, fmt.Errorf("storage: reading window %d levels 0..%d: %w", i, maxLevel, err)
	}
	cw, err := core.ReadCompressedWindowLevels(bytes.NewReader(buf), maxLevel)
	if err != nil {
		return nil, prefix, fmt.Errorf("storage: reading window %d levels 0..%d: %w", i, maxLevel, err)
	}
	sp.SetAttr("bytes", strconv.FormatInt(prefix, 10))
	obs.Default().Counter("storage.partial_reads_total").Add(1)
	obs.Default().Counter("storage.partial_bytes_saved_total").Add(r.lengths[i] - prefix)
	return cw, prefix, nil
}

// WindowLevelTable parses window i's header and level-offset table
// without touching the coefficient payload. The third return is the
// offset of the payload (the first level group's first byte) within the
// window, so PrefixBytes arithmetic maps levels to absolute byte ranges
// for HTTP Range requests against WindowSection. Legacy windows return
// core.ErrNotProgressive.
func (r *ContainerReader) WindowLevelTable(i int) (core.WindowInfo, core.LevelTable, int64, error) {
	if i < 0 || i >= len(r.offsets) {
		return core.WindowInfo{}, core.LevelTable{}, 0, fmt.Errorf("storage: window %d out of range [0,%d)", i, len(r.offsets))
	}
	sec := io.NewSectionReader(r.f, r.offsets[i], r.lengths[i])
	wi, table, payloadStart, err := core.ReadWindowLevelTable(sec)
	if err != nil {
		if errors.Is(err, core.ErrNotProgressive) || errors.Is(err, core.ErrGapWindow) {
			return core.WindowInfo{}, core.LevelTable{}, 0, fmt.Errorf("storage: window %d: %w", i, err)
		}
		return core.WindowInfo{}, core.LevelTable{}, 0, fmt.Errorf("storage: window %d level table: %w", i, err)
	}
	if total := payloadStart + table.PrefixBytes(len(table.Extents)-1); total != r.lengths[i] {
		err := fmt.Errorf("storage: window %d: level table covers %d bytes, index says %d: %w",
			i, total, r.lengths[i], ErrCorrupt)
		r.recordErr(i, err)
		return core.WindowInfo{}, core.LevelTable{}, 0, err
	}
	return wi, table, payloadStart, nil
}

// WindowSection returns a ReadSeeker over window i's serialized bytes
// (header, times, level table, payload — exactly what WriteTo produced).
// It is the raw-byte surface behind the server's Range endpoint: a
// client that has fetched the level table can issue byte-range requests
// for individual level groups and verify them against the table's
// per-group CRCs. The section shares the container's file handle; it is
// valid until the reader is closed.
func (r *ContainerReader) WindowSection(i int) (*io.SectionReader, error) {
	if i < 0 || i >= len(r.offsets) {
		return nil, fmt.Errorf("storage: window %d out of range [0,%d)", i, len(r.offsets))
	}
	return io.NewSectionReader(r.f, r.offsets[i], r.lengths[i]), nil
}
