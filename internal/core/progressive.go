package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"stwave/internal/codec"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/par"
	"stwave/internal/scratch"
)

// Progressive (v4) window layout. The 40-byte header is shared with the
// legacy layout, with the progressiveFlag bit set on the codec ID byte so
// pre-v4 readers fail typed ("unsupported format version") instead of
// misparsing the payload. After the per-slice times comes a level-offset
// table, then the coefficient payload reordered level-major:
//
//	[0:4]   level-table magic "STLT"
//	[4]     group count G (1 <= G <= spatial levels + 1; G below the
//	        maximum means the finest levels were shed, e.g. under
//	        ingest backpressure, and decode as zeros)
//	[5:8]   reserved (zero)
//	then G 12-byte extents: payload byte length (uint64 LE) + CRC32-IEEE
//	(uint32 LE) of that group's payload region, then the G group payload
//	regions back to back. Group g holds the blocks of every time slice
//	(slice-major within the group) for level group g of LevelGroups, so
//	any payload prefix covering groups 0..K is a complete, independently
//	verifiable K-level reconstruction.
const (
	// progressiveFlag marks the header codec-ID byte of a level-major
	// (v4) window.
	progressiveFlag = 0x80

	levelTableHeaderSize = 8
	levelExtentSize      = 12

	// maxGroupBytes bounds a single level group's payload length against
	// forged tables: far beyond any real window, small enough that the
	// sum over maxHeaderLevels+1 groups cannot overflow int64.
	maxGroupBytes = int64(1) << 40
)

var levelTableMagic = [4]byte{'S', 'T', 'L', 'T'}

// ErrNotProgressive reports a level-addressed operation on a window
// stored in the legacy slice-major layout.
var ErrNotProgressive = fmt.Errorf("core: window is not progressive (no level-major layout)")

// LevelExtent locates one level group's payload region inside a
// serialized progressive window: Length bytes whose CRC32-IEEE checksum
// is CRC. Extents come from untrusted container bytes — every consumer
// must bounds-check Length before using it to size reads.
type LevelExtent struct {
	Length int64
	CRC    uint32
}

// LevelTable is the parsed level-offset table of a progressive window.
type LevelTable struct {
	Extents []LevelExtent
}

// PrefixBytes returns the payload bytes covering groups 0..maxLevel —
// the partial-read size for a level-K request. maxLevel is clamped to
// the available groups.
func (t LevelTable) PrefixBytes(maxLevel int) int64 {
	var n int64
	for g, ext := range t.Extents {
		if g > maxLevel {
			break
		}
		n += ext.Length
	}
	return n
}

// EncodedSize returns the serialized size of the table itself.
func (t LevelTable) EncodedSize() int64 {
	return levelTableHeaderSize + int64(len(t.Extents))*levelExtentSize
}

// Progressive reports whether the window is stored level-major (the v4
// layout with an addressable byte range per detail level).
func (cw *CompressedWindow) Progressive() bool { return len(cw.LevelBlocks) > 0 }

// DropFinestLevel returns a shallow copy of a progressive window without
// its finest retained detail level — the free degrade step the ingest
// ladder takes before paying for a recompression rung. The blocks are
// shared with the receiver. It reports false (returning the receiver
// unchanged) for legacy windows and for windows already reduced to the
// approximation group alone.
func (cw *CompressedWindow) DropFinestLevel() (*CompressedWindow, bool) {
	if !cw.Progressive() || len(cw.LevelBlocks) <= 1 {
		return cw, false
	}
	out := *cw
	out.LevelBlocks = cw.LevelBlocks[:len(cw.LevelBlocks)-1]
	return &out, true
}

// writeToProgressive serializes the level-major layout: common header
// (with the progressive bit), times, level-offset table, then one
// contiguous payload region per level group.
func (cw *CompressedWindow) writeToProgressive(w io.Writer, cdc codec.Codec) (int64, error) {
	numSlices := cw.NumSlices()
	hdr, err := cw.buildHeader(cdc, numSlices)
	if err != nil {
		return 0, err
	}
	hdr[4] |= progressiveFlag
	if err := validateLevelGeometry(cw.Dims, cw.SpatialLevels, len(cw.LevelBlocks)); err != nil {
		return 0, err
	}
	for g, row := range cw.LevelBlocks {
		if len(row) != numSlices {
			return 0, fmt.Errorf("core: level group %d has %d blocks, window has %d slices", g, len(row), numSlices)
		}
	}

	// The table precedes the payload, so group lengths and checksums are
	// computed into a buffer first. Windows are encoded-size objects that
	// already live in memory as blocks; buffering the payload once costs
	// roughly the window's encoded size.
	var payload bytes.Buffer
	extents := make([]LevelExtent, len(cw.LevelBlocks))
	for g, row := range cw.LevelBlocks {
		start := int64(payload.Len())
		h := crc32.NewIEEE()
		mw := io.MultiWriter(&payload, h)
		for i, b := range row {
			if _, err := cdc.WriteBlock(mw, b); err != nil {
				return 0, fmt.Errorf("core: writing level %d block %d: %w", g, i, err)
			}
		}
		extents[g] = LevelExtent{Length: int64(payload.Len()) - start, CRC: h.Sum32()}
	}

	var written int64
	n, err := w.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, err
	}
	times := make([]byte, 8*numSlices)
	for i := 0; i < numSlices; i++ {
		binary.LittleEndian.PutUint64(times[i*8:], math.Float64bits(cw.timeAt(i)))
	}
	n, err = w.Write(times)
	written += int64(n)
	if err != nil {
		return written, err
	}
	if len(extents) > math.MaxUint8 {
		return written, fmt.Errorf("core: %d level groups overflow the table's count byte", len(extents))
	}
	table := make([]byte, levelTableHeaderSize+levelExtentSize*len(extents))
	copy(table[0:4], levelTableMagic[:])
	table[4] = byte(len(extents))
	for g, ext := range extents {
		if ext.Length < 0 {
			return written, fmt.Errorf("core: negative level group %d length %d", g, ext.Length)
		}
		off := levelTableHeaderSize + g*levelExtentSize
		binary.LittleEndian.PutUint64(table[off:off+8], uint64(ext.Length))
		binary.LittleEndian.PutUint32(table[off+8:off+12], ext.CRC)
	}
	n, err = w.Write(table)
	written += int64(n)
	if err != nil {
		return written, err
	}
	pn, err := io.Copy(w, &payload)
	written += pn
	return written, err
}

// parseLevelTable reads and validates a level-offset table. spatialLevels
// bounds the admissible group count; every extent length is checked
// against maxGroupBytes before anything is sized from it.
func parseLevelTable(r io.Reader, spatialLevels int) (LevelTable, error) {
	hdr := make([]byte, levelTableHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return LevelTable{}, fmt.Errorf("core: reading level table: %w", err)
	}
	if [4]byte(hdr[0:4]) != levelTableMagic {
		return LevelTable{}, fmt.Errorf("core: bad level table magic %q", hdr[0:4])
	}
	groups := int(hdr[4])
	if groups < 1 || groups > spatialLevels+1 {
		return LevelTable{}, fmt.Errorf("core: level table declares %d groups, header permits [1, %d]",
			groups, spatialLevels+1)
	}
	if hdr[5] != 0 || hdr[6] != 0 || hdr[7] != 0 {
		return LevelTable{}, fmt.Errorf("core: nonzero reserved bytes in level table header")
	}
	ents := make([]byte, levelExtentSize*groups)
	if _, err := io.ReadFull(r, ents); err != nil {
		return LevelTable{}, fmt.Errorf("core: reading level table extents: %w", err)
	}
	table := LevelTable{Extents: make([]LevelExtent, groups)}
	for g := range table.Extents {
		off := g * levelExtentSize
		length := binary.LittleEndian.Uint64(ents[off : off+8])
		if length > uint64(maxGroupBytes) {
			return LevelTable{}, fmt.Errorf("core: level group %d length %d exceeds cap %d", g, length, maxGroupBytes)
		}
		table.Extents[g] = LevelExtent{
			Length: int64(length),
			CRC:    binary.LittleEndian.Uint32(ents[off+8 : off+12]),
		}
	}
	return table, nil
}

// ReadWindowLevelTable parses the header, slice times, and level-offset
// table of a serialized progressive window, returning the window info,
// the table, and the byte offset at which group 0's payload begins. It
// reads nothing beyond the table, so a container can locate any level
// prefix from a few hundred bytes. Legacy windows return
// ErrNotProgressive.
func ReadWindowLevelTable(r io.Reader) (WindowInfo, LevelTable, int64, error) {
	wi, err := ReadWindowInfo(r)
	if err != nil {
		return WindowInfo{}, LevelTable{}, 0, err
	}
	if wi.Gap != nil {
		return WindowInfo{}, LevelTable{}, 0, ErrGapWindow
	}
	if !wi.Progressive {
		return WindowInfo{}, LevelTable{}, 0, ErrNotProgressive
	}
	timesLen := int64(wi.NumSlices) * 8
	if _, err := io.CopyN(io.Discard, r, timesLen); err != nil {
		return WindowInfo{}, LevelTable{}, 0, fmt.Errorf("core: skipping slice times: %w", err)
	}
	table, err := parseLevelTable(r, wi.SpatialLevels)
	if err != nil {
		return WindowInfo{}, LevelTable{}, 0, err
	}
	payloadStart := 40 + timesLen + table.EncodedSize()
	return wi, table, payloadStart, nil
}

// readProgressiveBody parses the level table and group payloads of a
// progressive window whose header and times have been consumed.
// maxLevel < 0 reads every group; otherwise reading stops after group
// maxLevel (clamped to the groups present), which is what makes a
// partial container read decode without ever touching finer bytes. Each
// group region is length-bounded and CRC-verified independently, so a
// truncated or forged stream fails typed at the first bad group.
func readProgressiveBody(r io.Reader, cdc codec.Codec, cw *CompressedWindow, numSlices, maxLevel int) (*CompressedWindow, error) {
	table, err := parseLevelTable(r, cw.SpatialLevels)
	if err != nil {
		return nil, err
	}
	groups := LevelGroups(cw.Dims, cw.SpatialLevels)
	readGroups := len(table.Extents)
	if maxLevel >= 0 && maxLevel+1 < readGroups {
		readGroups = maxLevel + 1
	}
	cw.LevelBlocks = make([][]codec.Block, readGroups)
	for g := 0; g < readGroups; g++ {
		ext := table.Extents[g]
		if ext.Length < 0 || ext.Length > maxGroupBytes {
			return nil, fmt.Errorf("core: level group %d length %d out of range", g, ext.Length)
		}
		lr := &io.LimitedReader{R: r, N: ext.Length}
		h := crc32.NewIEEE()
		tr := io.TeeReader(lr, h)
		row := make([]codec.Block, numSlices)
		for i := range row {
			b, err := cdc.ReadBlock(tr)
			if err != nil {
				return nil, fmt.Errorf("core: reading level %d block %d: %w", g, i, err)
			}
			if b.Total() != groups[g].Count {
				return nil, fmt.Errorf("core: level %d block %d has %d coefficients, group needs %d",
					g, i, b.Total(), groups[g].Count)
			}
			row[i] = b
		}
		if lr.N != 0 {
			return nil, fmt.Errorf("core: level group %d payload has %d undeclared trailing bytes", g, lr.N)
		}
		if sum := h.Sum32(); sum != ext.CRC {
			return nil, fmt.Errorf("core: level group %d checksum mismatch: got %08x, table says %08x", g, sum, ext.CRC)
		}
		cw.LevelBlocks[g] = row
	}
	return cw, nil
}

// ReadCompressedWindowLevels deserializes only level groups 0..maxLevel
// of a progressive window — the partial-decode read path. The returned
// window reconstructs at any Query.MaxLevel up to maxLevel; finer groups
// are absent as if they had been shed. The reader needs to supply only the
// byte prefix covering those groups (see ReadWindowLevelTable /
// LevelTable.PrefixBytes); nothing past group maxLevel is read. Legacy
// windows fail with ErrNotProgressive.
func ReadCompressedWindowLevels(r io.Reader, maxLevel int) (*CompressedWindow, error) {
	if maxLevel < 0 {
		return nil, fmt.Errorf("core: negative level %d", maxLevel)
	}
	return readCompressedWindow(r, maxLevel, true)
}

// validateLevelBlocks checks the shape of every present level group —
// row length and per-block coefficient counts against the header's
// geometry — BEFORE any dims-derived buffer is sized. Block totals are
// bounded by the bytes actually parsed, so running this first keeps a
// forged header from driving allocations (the PR 6 hardening
// discipline).
func validateLevelBlocks(cw *CompressedWindow) error {
	if err := validateLevelGeometry(cw.Dims, cw.SpatialLevels, len(cw.LevelBlocks)); err != nil {
		return err
	}
	groups := LevelGroups(cw.Dims, cw.SpatialLevels)
	t := cw.NumSlices()
	for g, row := range cw.LevelBlocks {
		if len(row) != t {
			return fmt.Errorf("core: level group %d has %d blocks, window has %d slices", g, len(row), t)
		}
		for i, b := range row {
			if b.Total() != groups[g].Count {
				return fmt.Errorf("core: level %d block %d has %d coefficients, group needs %d",
					g, i, b.Total(), groups[g].Count)
			}
		}
	}
	return nil
}

// decodeInto decodes the window's coefficients into the zero-filled
// slice fields, slices in parallel. Legacy blocks decode in place.
// Progressive level groups 0..maxLevel decode through a pooled buffer and
// scatter into the fields' layout, which must be CoarseDims(cw.Dims,
// L-maxLevel) or any larger approximation cube; groups the window does
// not carry stay zero.
func decodeInto[F num.Float](cw *CompressedWindow, slices []*grid.Field3DOf[F], maxLevel, workers int) error {
	groups := LevelGroups(cw.Dims, cw.SpatialLevels)
	last := min(maxLevel, len(cw.LevelBlocks)-1)
	maxCount := 0
	for g := 0; g <= last; g++ {
		maxCount = max(maxCount, groups[g].Count)
	}
	t := len(slices)
	errs := make([]error, t)
	outer, inner := par.Split(workers, t)
	par.For(t, outer, 1, func(start, end int) {
		buf := scratch.FloatsOf[F](maxCount)
		defer scratch.PutFloatsOf(buf)
		for i := start; i < end; i++ {
			if !cw.Progressive() {
				errs[i] = decodeBlockIntoOf(cw.Blocks[i], slices[i].Data, inner)
				continue
			}
			for g := 0; g <= last; g++ {
				lg := groups[g]
				if err := decodeBlockIntoOf(cw.LevelBlocks[g][i], buf[:lg.Count], inner); err != nil {
					errs[i] = err
					return
				}
				scatterGroup(slices[i].Data, slices[i].Dims, buf[:lg.Count], lg)
			}
		}
	})
	return errors.Join(errs...)
}

// approxRescale undoes the approximation band's per-level sqrt(2)^3
// amplitude gain for the levels left un-inverted by a partial decode,
// matching transform.CoarseApproximation's convention so a level-K
// reconstruction is directly comparable to a coarse preview of the
// original field.
func approxRescale[F num.Float](fields []*grid.Field3DOf[F], skippedLevels, workers int) {
	if skippedLevels <= 0 {
		return
	}
	scale := F(math.Pow(math.Sqrt2, -3*float64(skippedLevels)))
	par.For(len(fields), workers, 1, func(start, end int) {
		for _, f := range fields[start:end] {
			for j := range f.Data {
				f.Data[j] *= scale
			}
		}
	})
}
