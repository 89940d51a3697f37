package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"stwave/internal/codec"
	"stwave/internal/grid"
	"stwave/internal/wavelet"
)

// On-disk format of a CompressedWindow:
//
//	[0:4]   magic "STWV"
//	[4]     codec format ID (1 = sparse, 2 = deflate, 3 = entropy; the
//	        historical "format version" byte — version 1 files were raw
//	        sparse blocks and version 2 DEFLATE-framed blocks, so old
//	        containers decode unchanged through the codec registry).
//	        The high bit (0x80) marks the v4 progressive (level-major)
//	        layout, which inserts a level-offset table after the slice
//	        times — see progressive.go. Bit 0x40 marks a float32-pipeline
//	        window (v5): the coefficient payload is byte-identical to the
//	        float64 layout (blocks always stored float32 values), but the
//	        window reconstructs natively through the single-precision
//	        inverse transform. Legacy v2-v4 containers never set either
//	        bit and decode unchanged; pre-v5 readers reject flagged bytes
//	        as an unknown format version rather than misparsing.
//	[5]     mode (0 = 3D, 1 = 4D)
//	[6]     spatial kernel
//	[7]     temporal kernel
//	[8:12]  spatial levels (int32 LE)
//	[12:16] temporal levels (int32 LE)
//	[16:24] ratio (float64 LE)
//	[24:36] dims nx, ny, nz (uint32 LE each)
//	[36:40] number of slices (uint32 LE)
//	then numSlices float64 times. Both layouts share this header and the
//	times; only what follows differs. The slice-major layout, the one
//	level group of the whole grid, follows with numSlices blocks in the
//	codec's own framing; the level-major layout follows with its
//	level-offset table and one payload region per level group.
var magic = [4]byte{'S', 'T', 'W', 'V'}

// precisionFlag marks the header codec-ID byte of a float32-pipeline (v5)
// window. It shares byte 4 with progressiveFlag; registered codec IDs are
// validated against both bits before writing.
const precisionFlag = 0x40

// headerFlags masks the layout/precision bits out of the codec-ID byte.
const headerFlags = progressiveFlag | precisionFlag

// Header field ranges shared by the encoder guard and the decoder's
// forged-header validation: a value outside these bounds cannot be
// represented in the fixed-width header without silent truncation.
const (
	maxHeaderLevels = 64      // decomposition levels; MaxLevels caps far below this
	maxHeaderSlices = 1 << 20 // time slices per window
)

// appendHeader validates and assembles the 40-byte header followed by
// the slice times — the prologue both layouts share. Rejecting
// unrepresentable fields before any bytes are written matters: a
// truncated mode, level count, or dimension would pass every downstream
// checksum (computed over the wrong bytes) and only fail at
// reconstruction.
func (cw *CompressedWindow) appendHeader(cdc codec.Codec, numSlices int) ([]byte, error) {
	if cw.Opts.Mode < 0 || cw.Opts.Mode > 0xff ||
		cw.Opts.SpatialKernel < 0 || cw.Opts.SpatialKernel > 0xff ||
		cw.Opts.TemporalKernel < 0 || cw.Opts.TemporalKernel > 0xff {
		return nil, fmt.Errorf("core: mode %d or kernel %d/%d outside header byte range",
			cw.Opts.Mode, cw.Opts.SpatialKernel, cw.Opts.TemporalKernel)
	}
	if cw.SpatialLevels < 0 || cw.SpatialLevels > maxHeaderLevels ||
		cw.TemporalLevels < 0 || cw.TemporalLevels > maxHeaderLevels {
		return nil, fmt.Errorf("core: decomposition levels %d/%d outside header range [0, %d]",
			cw.SpatialLevels, cw.TemporalLevels, maxHeaderLevels)
	}
	if cw.Dims.Nx > grid.MaxAxis || cw.Dims.Ny > grid.MaxAxis || cw.Dims.Nz > grid.MaxAxis {
		return nil, fmt.Errorf("core: dims %v exceed header axis cap %d", cw.Dims, grid.MaxAxis)
	}
	if numSlices > maxHeaderSlices {
		return nil, fmt.Errorf("core: %d slices exceed header cap %d", numSlices, maxHeaderSlices)
	}
	if id := cdc.ID(); byte(id)&headerFlags != 0 {
		return nil, fmt.Errorf("core: codec ID %d collides with a header flag bit", id)
	}
	if !cw.Precision.Valid() {
		return nil, fmt.Errorf("core: invalid precision %d", int(cw.Precision))
	}
	hdr := make([]byte, 40, 40+8*numSlices)
	copy(hdr[0:4], magic[:])
	hdr[4] = byte(cdc.ID())
	if cw.Opts.Progressive {
		hdr[4] |= progressiveFlag
	}
	if cw.Precision == Float32 {
		hdr[4] |= precisionFlag
	}
	hdr[5] = byte(cw.Opts.Mode)
	hdr[6] = byte(cw.Opts.SpatialKernel)
	hdr[7] = byte(cw.Opts.TemporalKernel)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(cw.SpatialLevels))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(cw.TemporalLevels))
	binary.LittleEndian.PutUint64(hdr[16:24], math.Float64bits(cw.Opts.Ratio))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(cw.Dims.Nx))
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(cw.Dims.Ny))
	binary.LittleEndian.PutUint32(hdr[32:36], uint32(cw.Dims.Nz))
	binary.LittleEndian.PutUint32(hdr[36:40], uint32(numSlices))
	for i := 0; i < numSlices; i++ {
		hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(cw.timeAt(i)))
	}
	return hdr, nil
}

// WriteTo serializes the compressed window through its codec (Opts.Codec;
// sparse when unset). It implements io.WriterTo. Both layouts write the
// header and times, then their level groups' blocks; the level-major
// layout puts a level-offset table, with each group's length and CRC,
// between the two.
func (cw *CompressedWindow) WriteTo(w io.Writer) (int64, error) {
	if err := validateBlocks(cw); err != nil {
		return 0, err
	}
	cdc := cw.Codec()
	head, err := cw.appendHeader(cdc, cw.NumSlices())
	if err != nil {
		return 0, err
	}
	if !cw.Opts.Progressive {
		n, err := w.Write(head)
		if err != nil {
			return int64(n), err
		}
		bn, err := writeRow(w, cdc, 0, cw.Groups[0])
		return int64(n) + bn, err
	}
	// The table precedes the payload, so group lengths and checksums are
	// computed into a buffer first. Windows are encoded-size objects that
	// already live in memory as blocks; buffering the payload once costs
	// roughly the window's encoded size.
	var payload bytes.Buffer
	extents := make([]LevelExtent, len(cw.Groups))
	for g, row := range cw.Groups {
		h := crc32.NewIEEE()
		n, err := writeRow(io.MultiWriter(&payload, h), cdc, g, row)
		if err != nil {
			return 0, err
		}
		extents[g] = LevelExtent{Length: n, CRC: h.Sum32()}
	}
	if len(extents) > math.MaxUint8 {
		return 0, fmt.Errorf("core: %d level groups overflow the table's count byte", len(extents))
	}
	head = append(head, levelTableMagic[:]...)
	head = append(head, byte(len(extents)), 0, 0, 0)
	for g, ext := range extents {
		if ext.Length < 0 {
			return 0, fmt.Errorf("core: negative level group %d length %d", g, ext.Length)
		}
		head = binary.LittleEndian.AppendUint64(head, uint64(ext.Length))
		head = binary.LittleEndian.AppendUint32(head, ext.CRC)
	}
	n, err := w.Write(head)
	if err != nil {
		return int64(n), err
	}
	pn, err := io.Copy(w, &payload)
	return int64(n) + pn, err
}

// writeRow writes the blocks of level group g in the codec's framing.
func writeRow(w io.Writer, cdc codec.Codec, g int, row []codec.Block) (int64, error) {
	var written int64
	for i, b := range row {
		n, err := cdc.WriteBlock(w, b)
		written += n
		if err != nil {
			return written, fmt.Errorf("core: writing level %d block %d: %w", g, i, err)
		}
	}
	return written, nil
}

// WindowInfo summarizes a serialized window from its fixed-size header
// alone — enough to size buffers, map time indices to windows, and decide
// cache admission without decoding any coefficient payload.
type WindowInfo struct {
	Dims           grid.Dims
	NumSlices      int
	Mode           Mode
	SpatialKernel  wavelet.Kernel
	TemporalKernel wavelet.Kernel
	// Codec is the coefficient backend the window's blocks are encoded
	// with (the header's format ID byte, already registry-validated).
	Codec codec.ID
	// SpatialLevels is the spatial decomposition depth recorded in the
	// header — the number of addressable refinement levels of a
	// progressive window.
	SpatialLevels int
	// Progressive marks a v4 level-major window: its payload is grouped
	// by detail level behind a level-offset table, so byte prefixes
	// decode to coarse reconstructions (see ReadWindowLevelTable).
	Progressive bool
	// Precision records which pipeline produced the window (the header's
	// 0x40 flag); legacy headers never set it and report Float64.
	Precision Precision
	// Gap is non-nil when the container entry is a journaled gap marker
	// (a window shed under backpressure) rather than a compressed window.
	// For gaps NumSlices carries the dropped slice count so timeline
	// accounting works uniformly; Dims, Mode, kernels, and Codec are zero.
	Gap *GapMarker
}

// RawSizeBytes returns the size of the window once fully decompressed at
// its native precision — the memory cost of holding it in a
// decompressed-window cache (half as much for Float32 windows).
func (wi WindowInfo) RawSizeBytes() int64 {
	return int64(wi.Dims.Len()) * int64(wi.NumSlices) * int64(wi.Precision.SampleBytes())
}

// ReadWindowInfo parses only the 40-byte header of a serialized window. It
// runs the same header parser as ReadCompressedWindow but reads nothing
// beyond the header, so it is cheap enough to run over every window of a
// large container at startup. Gap marker entries (shed windows) are
// recognized and returned with Gap set instead of erroring, so timeline
// scans account for them without decoding heuristics.
func ReadWindowInfo(r io.Reader) (WindowInfo, error) {
	hdr := make([]byte, 40)
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return WindowInfo{}, fmt.Errorf("core: reading header: %w", err)
	}
	if [4]byte(hdr[0:4]) == GapMagic {
		gb := make([]byte, GapMarkerSize)
		copy(gb, hdr[:4])
		if _, err := io.ReadFull(r, gb[4:]); err != nil {
			return WindowInfo{}, fmt.Errorf("core: reading gap marker: %w", err)
		}
		g, err := ParseGapMarker(gb)
		if err != nil {
			return WindowInfo{}, err
		}
		return WindowInfo{NumSlices: g.Slices, Gap: &g}, nil
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return WindowInfo{}, fmt.Errorf("core: reading header: %w", err)
	}
	cw, numSlices, err := parseHeader(hdr)
	if err != nil {
		return WindowInfo{}, err
	}
	return WindowInfo{
		Dims:           cw.Dims,
		NumSlices:      numSlices,
		Mode:           cw.Opts.Mode,
		SpatialKernel:  cw.Opts.SpatialKernel,
		TemporalKernel: cw.Opts.TemporalKernel,
		Codec:          cw.Codec().ID(),
		SpatialLevels:  cw.SpatialLevels,
		Progressive:    cw.Opts.Progressive,
		Precision:      cw.Precision,
	}, nil
}

// parseHeader decodes and validates the 40-byte window header: the one
// parser behind ReadWindowInfo and ReadCompressedWindow. It returns the
// window's geometry and options, with no times or blocks yet, and its
// slice count.
func parseHeader(hdr []byte) (*CompressedWindow, int, error) {
	if [4]byte(hdr[0:4]) != magic {
		return nil, 0, fmt.Errorf("core: bad magic %q", hdr[0:4])
	}
	cdc, err := codec.ByID(codec.ID(hdr[4] &^ headerFlags))
	if err != nil {
		return nil, 0, fmt.Errorf("core: unsupported format version %d: %w", hdr[4], err)
	}
	cw := &CompressedWindow{}
	if hdr[4]&precisionFlag != 0 {
		cw.Precision = Float32
	}
	cw.Opts.Precision = cw.Precision
	cw.Opts.Codec = cdc
	cw.Opts.Progressive = hdr[4]&progressiveFlag != 0
	cw.Opts.Mode = Mode(hdr[5])
	cw.Opts.SpatialKernel = wavelet.Kernel(hdr[6])
	cw.Opts.TemporalKernel = wavelet.Kernel(hdr[7])
	spatialLevels := binary.LittleEndian.Uint32(hdr[8:12])
	temporalLevels := binary.LittleEndian.Uint32(hdr[12:16])
	if spatialLevels > maxHeaderLevels || temporalLevels > maxHeaderLevels {
		return nil, 0, fmt.Errorf("core: implausible decomposition levels %d/%d in header", spatialLevels, temporalLevels)
	}
	cw.SpatialLevels = int(spatialLevels)
	cw.TemporalLevels = int(temporalLevels)
	cw.Opts.Ratio = math.Float64frombits(binary.LittleEndian.Uint64(hdr[16:24]))
	cw.Dims = grid.Dims{
		Nx: int(binary.LittleEndian.Uint32(hdr[24:28])),
		Ny: int(binary.LittleEndian.Uint32(hdr[28:32])),
		Nz: int(binary.LittleEndian.Uint32(hdr[32:36])),
	}
	numSlices := int(binary.LittleEndian.Uint32(hdr[36:40]))
	if !cw.Dims.Valid() {
		return nil, 0, fmt.Errorf("core: invalid dims %v in header", cw.Dims)
	}
	// Per-axis cap prevents integer overflow in Dims.Len() and bounds
	// allocations against forged headers (2^20 per axis is far beyond any
	// real grid).
	if cw.Dims.Nx > grid.MaxAxis || cw.Dims.Ny > grid.MaxAxis || cw.Dims.Nz > grid.MaxAxis {
		return nil, 0, fmt.Errorf("core: implausible dims %v in header", cw.Dims)
	}
	if numSlices < 1 || numSlices > maxHeaderSlices {
		return nil, 0, fmt.Errorf("core: implausible slice count %d", numSlices)
	}
	if cw.Opts.Mode != Spatial3D && cw.Opts.Mode != Spatiotemporal4D {
		return nil, 0, fmt.Errorf("core: invalid mode %d in header", int(cw.Opts.Mode))
	}
	if !cw.Opts.SpatialKernel.Valid() || !cw.Opts.TemporalKernel.Valid() {
		return nil, 0, fmt.Errorf("core: invalid kernel in header")
	}
	return cw, numSlices, nil
}

// ReadCompressedWindow deserializes a window written by WriteTo. The codec
// is resolved from the header's format ID, so windows decode transparently
// whatever backend wrote them; the resolved codec lands in Opts.Codec and
// is reused on re-serialization. The header's progressive bit selects the
// layout and lands in Opts.Progressive.
func ReadCompressedWindow(r io.Reader) (*CompressedWindow, error) {
	return readCompressedWindow(r, -1, false)
}

// readCompressedWindow parses either layout: the header and times, then
// the slice-major layout's one group, or the level table and the groups
// it lists. maxLevel >= 0 stops reading after that level group
// (progressive windows only); requireProgressive rejects legacy windows
// with ErrNotProgressive instead of reading them fully. Each level group
// is length-bounded and CRC-verified independently, so a truncated or
// forged stream fails typed at the first bad group, and a partial
// container read decodes without ever touching finer bytes. The blocks
// read must pass validateBlocks.
func readCompressedWindow(r io.Reader, maxLevel int, requireProgressive bool) (*CompressedWindow, error) {
	hdr := make([]byte, 40)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	if [4]byte(hdr[0:4]) == GapMagic {
		return nil, ErrGapWindow
	}
	cw, numSlices, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	if requireProgressive && !cw.Opts.Progressive {
		return nil, ErrNotProgressive
	}
	cw.Times = make([]float64, numSlices)
	var tb [8]byte
	for i := range cw.Times {
		if _, err := io.ReadFull(r, tb[:]); err != nil {
			return nil, fmt.Errorf("core: reading time %d: %w", i, err)
		}
		cw.Times[i] = math.Float64frombits(binary.LittleEndian.Uint64(tb[:]))
	}
	cdc := cw.Codec()
	if !cw.Opts.Progressive {
		row, err := readRow(r, cdc, numSlices, 0)
		if err != nil {
			return nil, err
		}
		cw.Groups = [][]codec.Block{row}
	} else {
		table, err := parseLevelTable(r, cw.SpatialLevels)
		if err != nil {
			return nil, err
		}
		readGroups := len(table.Extents)
		if maxLevel >= 0 && maxLevel+1 < readGroups {
			readGroups = maxLevel + 1
		}
		cw.Groups = make([][]codec.Block, readGroups)
		for g := range cw.Groups {
			ext := table.Extents[g]
			lr := &io.LimitedReader{R: r, N: ext.Length}
			h := crc32.NewIEEE()
			if cw.Groups[g], err = readRow(io.TeeReader(lr, h), cdc, numSlices, g); err != nil {
				return nil, err
			}
			if lr.N != 0 {
				return nil, fmt.Errorf("core: level group %d payload has %d undeclared trailing bytes", g, lr.N)
			}
			if sum := h.Sum32(); sum != ext.CRC {
				return nil, fmt.Errorf("core: level group %d checksum mismatch: got %08x, table says %08x", g, sum, ext.CRC)
			}
		}
	}
	if err := validateBlocks(cw); err != nil {
		return nil, err
	}
	return cw, nil
}

// readRow reads one block per slice of level group g.
func readRow(r io.Reader, cdc codec.Codec, numSlices, g int) ([]codec.Block, error) {
	row := make([]codec.Block, numSlices)
	for i := range row {
		b, err := cdc.ReadBlock(r)
		if err != nil {
			return nil, fmt.Errorf("core: reading level %d block %d: %w", g, i, err)
		}
		row[i] = b
	}
	return row, nil
}
