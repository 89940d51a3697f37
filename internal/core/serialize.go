package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
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
//	then numSlices float64 times, then numSlices blocks in the codec's
//	own framing.
var magic = [4]byte{'S', 'T', 'W', 'V'}

// precisionFlag marks the header codec-ID byte of a float32-pipeline (v5)
// window. It shares byte 4 with progressiveFlag; registered codec IDs are
// validated against both bits before writing.
const precisionFlag = 0x40

// headerFlags masks the layout/precision bits out of the codec-ID byte.
const headerFlags = progressiveFlag | precisionFlag

// WriteTo serializes the compressed window through its codec (Opts.Codec;
// sparse when unset). It implements io.WriterTo.
func (cw *CompressedWindow) WriteTo(w io.Writer) (int64, error) {
	return cw.writeTo(w, cw.Codec())
}

// WriteToDeflated serializes the window with each block passed through the
// DEFLATE entropy stage — the significance bitmap compresses to almost
// nothing at high ratios. It only applies to sparse-family blocks; windows
// encoded by other backends (which are already entropy-coded) refuse it.
func (cw *CompressedWindow) WriteToDeflated(w io.Writer) (int64, error) {
	return cw.writeTo(w, codec.Deflate())
}

// Header field ranges shared by the encoder guard and the decoder's
// forged-header validation: a value outside these bounds cannot be
// represented in the fixed-width header without silent truncation.
const (
	maxHeaderLevels = 64      // decomposition levels; MaxLevels caps far below this
	maxHeaderAxis   = 1 << 20 // per-axis dimension (far beyond any real grid)
	maxHeaderSlices = 1 << 20 // time slices per window
)

// buildHeader validates and assembles the 40-byte common header. The
// caller ORs progressiveFlag into byte 4 for the level-major layout.
// Rejecting unrepresentable fields before any bytes are written matters:
// a truncated mode, level count, or dimension would pass every
// downstream checksum (computed over the wrong bytes) and only fail at
// reconstruction.
func (cw *CompressedWindow) buildHeader(cdc codec.Codec, numSlices int) ([]byte, error) {
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
	if cw.Dims.Nx > maxHeaderAxis || cw.Dims.Ny > maxHeaderAxis || cw.Dims.Nz > maxHeaderAxis {
		return nil, fmt.Errorf("core: dims %v exceed header axis cap %d", cw.Dims, maxHeaderAxis)
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
	hdr := make([]byte, 40)
	copy(hdr[0:4], magic[:])
	hdr[4] = byte(cdc.ID())
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
	return hdr, nil
}

func (cw *CompressedWindow) writeTo(w io.Writer, cdc codec.Codec) (int64, error) {
	if cw.Progressive() {
		return cw.writeToProgressive(w, cdc)
	}
	hdr, err := cw.buildHeader(cdc, len(cw.Blocks))
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var written int64
	n, err := bw.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, err
	}
	var tb [8]byte
	for i := 0; i < len(cw.Blocks); i++ {
		binary.LittleEndian.PutUint64(tb[:], math.Float64bits(cw.timeAt(i)))
		n, err = bw.Write(tb[:])
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	for i, b := range cw.Blocks {
		bn, err := cdc.WriteBlock(w, b)
		written += bn
		if err != nil {
			return written, fmt.Errorf("core: writing block %d: %w", i, err)
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
// validates the same invariants as ReadCompressedWindow's header path but
// reads nothing beyond the header, so it is cheap enough to run over every
// window of a large container at startup. Gap marker entries (shed
// windows) are recognized and returned with Gap set instead of erroring,
// so timeline scans account for them without decoding heuristics.
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
	if [4]byte(hdr[0:4]) != magic {
		return WindowInfo{}, fmt.Errorf("core: bad magic %q", hdr[0:4])
	}
	wi := WindowInfo{
		Mode:           Mode(hdr[5]),
		SpatialKernel:  wavelet.Kernel(hdr[6]),
		TemporalKernel: wavelet.Kernel(hdr[7]),
		Codec:          codec.ID(hdr[4] &^ headerFlags),
		Progressive:    hdr[4]&progressiveFlag != 0,
		Precision:      Float64,
	}
	if hdr[4]&precisionFlag != 0 {
		wi.Precision = Float32
	}
	if _, err := codec.ByID(wi.Codec); err != nil {
		return WindowInfo{}, fmt.Errorf("core: unsupported format version %d: %w", hdr[4], err)
	}
	spatialLevels := binary.LittleEndian.Uint32(hdr[8:12])
	if spatialLevels > maxHeaderLevels {
		return WindowInfo{}, fmt.Errorf("core: implausible spatial levels %d in header", spatialLevels)
	}
	wi.SpatialLevels = int(spatialLevels)
	wi.Dims = grid.Dims{
		Nx: int(binary.LittleEndian.Uint32(hdr[24:28])),
		Ny: int(binary.LittleEndian.Uint32(hdr[28:32])),
		Nz: int(binary.LittleEndian.Uint32(hdr[32:36])),
	}
	wi.NumSlices = int(binary.LittleEndian.Uint32(hdr[36:40]))
	if !wi.Dims.Valid() {
		return WindowInfo{}, fmt.Errorf("core: invalid dims %v in header", wi.Dims)
	}
	if wi.Dims.Nx > maxHeaderAxis || wi.Dims.Ny > maxHeaderAxis || wi.Dims.Nz > maxHeaderAxis {
		return WindowInfo{}, fmt.Errorf("core: implausible dims %v in header", wi.Dims)
	}
	if wi.NumSlices < 1 || wi.NumSlices > maxHeaderSlices {
		return WindowInfo{}, fmt.Errorf("core: implausible slice count %d", wi.NumSlices)
	}
	if wi.Mode != Spatial3D && wi.Mode != Spatiotemporal4D {
		return WindowInfo{}, fmt.Errorf("core: invalid mode %d in header", int(wi.Mode))
	}
	if !wi.SpatialKernel.Valid() || !wi.TemporalKernel.Valid() {
		return WindowInfo{}, fmt.Errorf("core: invalid kernel in header")
	}
	return wi, nil
}

// ReadCompressedWindow deserializes a window written by WriteTo. The codec
// is resolved from the header's format ID, so windows decode transparently
// whatever backend wrote them; the resolved codec lands in Opts.Codec and
// is reused on re-serialization. Progressive (v4) windows are recognized
// by the header's progressive bit and parsed through their level-offset
// table; legacy v2/v3 windows take the slice-major path below, unchanged.
func ReadCompressedWindow(r io.Reader) (*CompressedWindow, error) {
	return readCompressedWindow(r, -1, false)
}

// readCompressedWindow parses either layout. maxLevel >= 0 stops reading
// after that level group (progressive windows only); requireProgressive
// rejects legacy windows with ErrNotProgressive instead of reading them
// fully.
func readCompressedWindow(r io.Reader, maxLevel int, requireProgressive bool) (*CompressedWindow, error) {
	hdr := make([]byte, 40)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	if [4]byte(hdr[0:4]) == GapMagic {
		return nil, ErrGapWindow
	}
	if [4]byte(hdr[0:4]) != magic {
		return nil, fmt.Errorf("core: bad magic %q", hdr[0:4])
	}
	progressive := hdr[4]&progressiveFlag != 0
	if requireProgressive && !progressive {
		return nil, ErrNotProgressive
	}
	cdc, err := codec.ByID(codec.ID(hdr[4] &^ headerFlags))
	if err != nil {
		return nil, fmt.Errorf("core: unsupported format version %d: %w", hdr[4], err)
	}
	cw := &CompressedWindow{}
	if hdr[4]&precisionFlag != 0 {
		cw.Precision = Float32
	}
	cw.Opts.Precision = cw.Precision
	cw.Opts.Codec = cdc
	cw.Opts.Mode = Mode(hdr[5])
	cw.Opts.SpatialKernel = wavelet.Kernel(hdr[6])
	cw.Opts.TemporalKernel = wavelet.Kernel(hdr[7])
	spatialLevels := binary.LittleEndian.Uint32(hdr[8:12])
	temporalLevels := binary.LittleEndian.Uint32(hdr[12:16])
	if spatialLevels > maxHeaderLevels || temporalLevels > maxHeaderLevels {
		return nil, fmt.Errorf("core: implausible decomposition levels %d/%d in header", spatialLevels, temporalLevels)
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
		return nil, fmt.Errorf("core: invalid dims %v in header", cw.Dims)
	}
	// Per-axis cap prevents integer overflow in Dims.Len() and bounds
	// allocations against forged headers (2^20 per axis is far beyond any
	// real grid).
	if cw.Dims.Nx > maxHeaderAxis || cw.Dims.Ny > maxHeaderAxis || cw.Dims.Nz > maxHeaderAxis {
		return nil, fmt.Errorf("core: implausible dims %v in header", cw.Dims)
	}
	if numSlices < 1 || numSlices > maxHeaderSlices {
		return nil, fmt.Errorf("core: implausible slice count %d", numSlices)
	}
	if cw.Opts.Mode != Spatial3D && cw.Opts.Mode != Spatiotemporal4D {
		return nil, fmt.Errorf("core: invalid mode %d in header", int(cw.Opts.Mode))
	}
	if !cw.Opts.SpatialKernel.Valid() || !cw.Opts.TemporalKernel.Valid() {
		return nil, fmt.Errorf("core: invalid kernel in header")
	}
	cw.Times = make([]float64, numSlices)
	var tb [8]byte
	for i := range cw.Times {
		if _, err := io.ReadFull(r, tb[:]); err != nil {
			return nil, fmt.Errorf("core: reading time %d: %w", i, err)
		}
		cw.Times[i] = math.Float64frombits(binary.LittleEndian.Uint64(tb[:]))
	}
	if progressive {
		return readProgressiveBody(r, cdc, cw, numSlices, maxLevel)
	}
	cw.Blocks = make([]codec.Block, numSlices)
	for i := range cw.Blocks {
		b, err := cdc.ReadBlock(r)
		if err != nil {
			return nil, fmt.Errorf("core: reading block %d: %w", i, err)
		}
		if b.Total() != cw.Dims.Len() {
			return nil, fmt.Errorf("core: block %d size %d != grid size %d", i, b.Total(), cw.Dims.Len())
		}
		cw.Blocks[i] = b
	}
	return cw, nil
}
