package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

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
// layout with an addressable byte range per detail level). The layout is
// Opts.Progressive, which a read window takes from its header.
func (cw *CompressedWindow) Progressive() bool { return cw.Opts.Progressive }

// DropFinestLevel returns a shallow copy of the window without its finest
// retained level group — the free degrade step the ingest ladder takes
// before paying for a recompression rung. The blocks are shared with the
// receiver. It reports false (returning the receiver unchanged) for a
// window holding one group: a slice-major window, or a level-major window
// already reduced to its approximation group.
func (cw *CompressedWindow) DropFinestLevel() (*CompressedWindow, bool) {
	if len(cw.Groups) <= 1 {
		return cw, false
	}
	out := *cw
	out.Groups = cw.Groups[:len(cw.Groups)-1]
	return &out, true
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

// decodeInto decodes level groups 0..maxLevel of the window (those it
// carries) into the zero-filled slice fields, slices in parallel. The
// fields' layout must be CoarseDims(cw.Dims, L-maxLevel) or any larger
// approximation cube. A group that fills a field — a slice-major
// window's one group, or the approximation group of a level-0 decode —
// decodes straight into it; every other group decodes through a pooled
// buffer and scatters into place. Groups the window does not carry stay
// zero.
func decodeInto[F num.Float](cw *CompressedWindow, slices []*grid.Field3DOf[F], maxLevel, workers int) error {
	t := len(slices)
	if t == 0 {
		return nil
	}
	groups := LevelGroups(cw.Dims, cw.groupLevels())[:min(maxLevel, len(cw.Groups)-1)+1]
	fill := slices[0].Dims.Len()
	maxCount := 0
	for _, lg := range groups {
		if lg.Count != fill {
			maxCount = max(maxCount, lg.Count)
		}
	}
	errs := make([]error, t)
	outer, inner := par.Split(workers, t)
	par.For(t, outer, 1, func(start, end int) {
		buf := scratch.FloatsOf[F](maxCount)
		defer scratch.PutFloatsOf(buf)
		for i := start; i < end; i++ {
			for g, lg := range groups {
				dst := slices[i].Data
				if lg.Count != fill {
					dst = buf[:lg.Count]
				}
				if err := decodeBlockIntoOf(cw.Groups[g][i], dst, inner); err != nil {
					errs[i] = err
					return
				}
				if lg.Count != fill {
					scatterGroup(slices[i].Data, slices[i].Dims, dst, lg)
				}
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
