package entropy

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"stwave/internal/num"
	"stwave/internal/par"
	"stwave/internal/scratch"
)

// On-disk layout of an entropy-coded coefficient block:
//
//	[0:3]   magic "STE"
//	[3]     version 1
//	[4]     flags (bit 0: lossless)
//	[5]     bit depth (magnitude classes before escape; 0 when lossless)
//	[6]     gap exp-Golomb order
//	[7]     Huffman alphabet size (0 when lossless or no retained values)
//	[8:16]  total coefficient count N (uint64 LE)
//	[16:24] retained coefficient count K (uint64 LE)
//	[24:32] quantization step (float64 LE bits; 0.0 when lossless)
//	[32:36] chunk count (uint32 LE; always ceil(N/chunkSize))
//	then one byte per alphabet symbol: canonical Huffman code length
//	then one uint32 LE per chunk: payload byte length
//	then the chunk payloads, each an independently decodable bitstream
//
// Each chunk covers a fixed range of chunkSize coefficients and carries,
// MSB-first: its retained count (exp-Golomb order 0), then per retained
// coefficient an index gap (exp-Golomb of the header's order) followed by
// the value — 32 raw float32 bits when lossless, otherwise a Huffman
// magnitude class, class-1 refinement bits, and a sign bit, with classes
// beyond the bit depth escaping to exp-Golomb. Chunks share the one
// block-wide quantizer and Huffman table (both derived from global
// statistics), so the stream is bit-identical no matter how many workers
// encoded it, and any subset of chunks can decode in parallel.

const (
	blockMagic0, blockMagic1, blockMagic2 = 'S', 'T', 'E'
	blockVersion                          = 1
	headerSize                            = 36

	flagLossless = 1 << 0

	// chunkSize is the per-task granule of the parallel encode and decode
	// passes — the same granule the sparse backend uses, so the two
	// backends parallelize identically.
	chunkSize = 1 << 15

	// maxBlockTotal caps N against forged headers: one block is one 3D
	// field, and 2^31 samples is a 1290³ grid (mirrors the sparse
	// backend's cap). The bound is exclusive — Read rejects totals >=
	// maxBlockTotal — so an accepted total always fits in int, even on
	// 32-bit platforms.
	maxBlockTotal = 1 << 31

	// maxChunkPayload caps one chunk's payload length against forged
	// headers. An honest chunk cannot exceed ~100 bits per coefficient
	// (escape path worst case); 1 MiB per 32 Ki coefficients is ~256
	// bits each.
	maxChunkPayload = 1 << 20
)

// Block is the in-memory form of an entropy-coded coefficient slice. It
// is immutable after construction and safe for concurrent reads.
type Block struct {
	total    int
	retained int
	lossless bool
	bitDepth int
	gapK     uint8
	step     float64
	lengths  []uint8  // canonical Huffman code lengths (lossy path)
	chunkLen []uint32 // payload byte length per chunk
	payload  []byte   // concatenated chunk payloads
}

// Total returns the number of coefficients the block covers.
func (b *Block) Total() int { return b.total }

// Retained returns the number of surviving (nonzero) coefficients.
func (b *Block) Retained() int { return b.retained }

// EncodedSizeBytes returns the exact serialized size of the block.
func (b *Block) EncodedSizeBytes() int64 {
	return headerSize + int64(len(b.lengths)) + 4*int64(len(b.chunkLen)) + int64(len(b.payload))
}

// numChunks returns ceil(n/chunkSize).
func numChunks(n int) int { return (n + chunkSize - 1) / chunkSize }

// chunkBounds returns chunk ci's coefficient range within a block of n.
func chunkBounds(ci, n int) (lo, hi int) {
	lo = ci * chunkSize
	hi = lo + chunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// magClass returns the magnitude class of a quantized level's absolute
// value: 0 for 0, otherwise the number of significant bits.
func magClass(mag uint64) int { return bits.Len64(mag) }

// EncodeSurvivors entropy-codes one coefficient slice of total entries
// given only its survivors: idx strictly ascending in [0, total), val the
// matching nonzero values (codec.EncodeSurvivors checks this contract).
// Every pass visits survivors only, on up to workers goroutines, and the
// output is bit-identical for every worker count:
//
//  1. chunk ranges, and the magnitude maximum when the step depends on it;
//  2. each survivor quantized once into a pooled level slab, counted into
//     its chunk's class histogram, and its bits outside the Huffman code
//     (gap code, refinement, sign, escape residual) summed per chunk;
//  3. the Huffman table from the merged histogram, which fixes every
//     chunk's exact payload length, so the payload is allocated once;
//  4. each chunk written straight into its payload region, one word write
//     per survivor (two when gap and value together exceed 64 bits).
func EncodeSurvivors(total int, idx []int, val []float64, p Params, workers int) (*Block, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := total
	if n >= maxBlockTotal {
		return nil, fmt.Errorf("entropy: %d coefficients exceed the format cap %d", n, maxBlockTotal)
	}
	if len(idx) != len(val) || len(idx) > n {
		return nil, fmt.Errorf("entropy: %d survivor indices, %d values for %d coefficients", len(idx), len(val), n)
	}
	b := &Block{
		total:    n,
		retained: len(idx),
		lossless: p.Lossless,
		bitDepth: p.BitDepth,
	}
	if p.Lossless {
		b.bitDepth = 0
	}
	nch := numChunks(n)
	b.chunkLen = make([]uint32, nch)
	if n == 0 {
		return b, nil
	}
	b.gapK = gapOrder(n, b.retained)
	e := chunkEncoder{b: b, idx: idx, val: val}
	if !p.Lossless {
		e.nsyms = b.bitDepth + 2 // classes 0..bitDepth plus the escape symbol
	}

	// Per-chunk rows: [0] the chunk's first survivor, [1] its bits outside
	// the Huffman codes, [2:] its class histogram. One trailing word holds
	// the end of the last chunk's survivor range.
	e.stride = e.nsyms + 2
	rows := scratch.Uint64s(nch*e.stride + 1)
	defer scratch.PutUint64s(rows)
	e.rows = rows
	rows[nch*e.stride] = uint64(len(idx))

	// Pass 1: survivor ranges, and the maximum the step needs.
	maxs := scratch.Floats(nch)
	defer scratch.PutFloats(maxs)
	e.maxs = maxs
	e.scanMax = !p.Lossless
	e.each(workers, (*chunkEncoder).scan)
	maxMag := 0.0
	if e.scanMax {
		for _, m := range maxs {
			if m > maxMag {
				maxMag = m
			}
		}
	}
	e.q = p.newQuantizer(maxMag)
	b.step = e.q.Step

	// Pass 2: quantize once, count classes, and sum the other bits.
	levels := scratch.Uint64s(len(idx))
	defer scratch.PutUint64s(levels)
	e.levels = levels
	e.each(workers, (*chunkEncoder).measure)

	// The table, then every chunk's exact length and payload offset.
	var hist [maxAlphabet]int64
	var codes [maxAlphabet]uint64
	if e.nsyms > 0 && b.retained > 0 {
		for ci := 0; ci < nch; ci++ {
			for s, c := range rows[ci*e.stride+2 : (ci+1)*e.stride] {
				hist[s] += int64(c) //stlint:ignore trunccast per-chunk symbol counts are bounded by chunkSize
			}
		}
		b.lengths = huffBuildLengths(hist[:e.nsyms])
		huffCodes(b.lengths, codes[:e.nsyms])
		e.setTable(codes[:e.nsyms])
	}
	totalBytes := uint64(0)
	for ci := 0; ci < nch; ci++ {
		r := rows[ci*e.stride : (ci+1)*e.stride]
		bits := r[1]
		for s, l := range b.lengths {
			bits += r[2+s] * uint64(l)
		}
		nb := (bits + 7) / 8
		if nb > maxChunkPayload {
			// Unreachable for honest inputs (see maxChunkPayload), but a
			// wrapped uint32 length would corrupt the stream silently.
			return nil, fmt.Errorf("entropy: chunk %d payload %d exceeds format cap %d", ci, nb, maxChunkPayload)
		}
		b.chunkLen[ci] = uint32(nb)
		r[1] = totalBytes // from here on: the chunk's payload offset
		totalBytes += nb
	}
	b.payload = make([]byte, totalBytes)

	// Pass 3: write every chunk into its region.
	e.bad = -1
	e.each(workers, (*chunkEncoder).write)
	if e.bad >= 0 {
		return nil, fmt.Errorf("entropy: chunk %d did not fill its computed length", e.bad)
	}
	return b, nil
}

// maxAlphabet bounds the Huffman alphabet: classes 0..31 plus the escape.
const maxAlphabet = 33

// chunkEncoder holds what the chunk passes of EncodeSurvivors share.
type chunkEncoder struct {
	b      *Block
	idx    []int
	val    []float64
	q      Quantizer
	nsyms  int
	stride int
	rows   []uint64 // per chunk: first survivor, extra bits (then offset), histogram
	maxs   []float64
	// scanMax: the step depends on the block's magnitude maximum: a
	// bit-depth step follows it, and an ErrorBound step is lowered when
	// the maximum's level would dequantize past MaxFloat64.
	scanMax bool
	levels  []uint64 // quantized level of every survivor, as int64 bits
	// valCode/valLen are the value part of an in-range class c ahead of
	// its refinement bits: the Huffman code shifted up by c, so that
	// code, c-1 refinement bits and the sign form one c+len bit field.
	valCode [maxAlphabet]uint64
	valLen  [maxAlphabet]uint
	escCode uint64
	escLen  uint
	mu      sync.Mutex
	bad     int // a chunk whose written length missed its computed one, or -1
}

// each runs one chunk pass over every chunk on up to workers goroutines;
// a serial pass calls it directly, with no closure to allocate.
func (e *chunkEncoder) each(workers int, pass func(e *chunkEncoder, start, end int)) {
	nch := len(e.b.chunkLen)
	if nch == 1 || workers == 1 {
		pass(e, 0, nch)
		return
	}
	par.For(nch, workers, 1, func(start, end int) { pass(e, start, end) })
}

// scan is pass 1 over chunks [start, end): each chunk's first survivor
// and, unless the block is lossless, its magnitude maximum.
func (e *chunkEncoder) scan(start, end int) {
	for ci := start; ci < end; ci++ {
		lo := sort.SearchInts(e.idx, ci*chunkSize)
		e.rows[ci*e.stride] = uint64(lo) //stlint:ignore trunccast a survivor position is non-negative
		if !e.scanMax {
			continue
		}
		hi := lo + sort.SearchInts(e.idx[lo:], (ci+1)*chunkSize)
		m := 0.0
		for _, v := range e.val[lo:hi] {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		e.maxs[ci] = m
	}
}

// survivors returns chunk ci's survivor range and its first coefficient.
func (e *chunkEncoder) survivors(ci int) (lo, hi, first int) {
	r := e.rows[ci*e.stride:]
	return int(r[0]), int(r[e.stride]), ci * chunkSize //stlint:ignore trunccast survivor positions are bounded by len(idx)
}

// measure is pass 2 over chunks [start, end): levels, class histogram,
// and the chunk's bits outside the Huffman codes (count, gaps,
// refinement and sign bits, escape residuals, raw lossless values).
func (e *chunkEncoder) measure(start, end int) {
	bitDepth, k := e.b.bitDepth, uint(e.b.gapK)
	for ci := start; ci < end; ci++ {
		lo, hi, first := e.survivors(ci)
		r := e.rows[ci*e.stride : (ci+1)*e.stride]
		// Neighbouring survivors often share a class, so odd and even
		// positions count into separate histograms instead of queueing on
		// one counter.
		var hist [2][maxAlphabet]uint32
		_, extra := expGolomb(uint64(hi-lo), 0) //stlint:ignore trunccast a survivor count is non-negative
		prev := first - 1
		for j := lo; j < hi; j++ {
			i := e.idx[j]
			_, gl := expGolomb(uint64(i-prev-1), k) //stlint:ignore trunccast gap between ascending indices is non-negative
			prev = i
			extra += gl
			if e.b.lossless {
				extra += 32
				continue
			}
			level := e.q.Quantize(e.val[j])
			e.levels[j] = uint64(level) //stlint:ignore trunccast the level's two's-complement bits, read back as int64
			c := magClass(levelMag(level))
			if c > bitDepth {
				hist[j&1][bitDepth+1]++
				_, el := expGolomb(levelMag(level)-1<<uint(bitDepth), 0)
				extra += el + 1 // residual and sign
				continue
			}
			hist[j&1][c]++
			extra += uint(c) // c-1 refinement bits and a sign, none for class 0
		}
		r[1] = uint64(extra)
		for s := range r[2:] {
			r[2+s] = uint64(hist[0][s]) + uint64(hist[1][s])
		}
	}
}

// setTable derives the per-class write fields from the canonical codes.
func (e *chunkEncoder) setTable(codes []uint64) {
	esc := e.b.bitDepth + 1
	for c := 0; c < esc; c++ {
		e.valCode[c] = codes[c] << uint(c)
		e.valLen[c] = uint(e.b.lengths[c]) + uint(c)
	}
	e.escCode, e.escLen = codes[esc], uint(e.b.lengths[esc])
}

// write is pass 3 over chunks [start, end): each chunk's bitstream —
// retained count, then per survivor its gap code and value — into its
// payload region.
func (e *chunkEncoder) write(start, end int) {
	b := e.b
	bitDepth, k := b.bitDepth, uint(b.gapK)
	for ci := start; ci < end; ci++ {
		lo, hi, first := e.survivors(ci)
		off := int(e.rows[ci*e.stride+1]) //stlint:ignore trunccast payload offsets are bounded by the payload length
		w := wordWriter{dst: b.payload[off : off+int(b.chunkLen[ci])]}
		w.write(expGolomb(uint64(hi-lo), 0)) //stlint:ignore trunccast a survivor count is non-negative
		prev := first - 1
		for j := lo; j < hi; j++ {
			i := e.idx[j]
			g, gl := expGolomb(uint64(i-prev-1), k) //stlint:ignore trunccast gap between ascending indices is non-negative
			prev = i
			if b.lossless {
				w.write(g<<32|uint64(math.Float32bits(float32(e.val[j]))), gl+32) //stlint:ignore trunccast the raw-float32 lossless mode stores 32-bit samples by contract
				continue
			}
			level := int64(e.levels[j]) //stlint:ignore trunccast the bits pass 2 stored from an int64
			mag := levelMag(level)
			neg := uint64(0)
			if level < 0 {
				neg = 1
			}
			c := magClass(mag)
			if c > bitDepth {
				w.write(g, gl)
				w.write(e.escCode, e.escLen)
				ep, el := expGolomb(mag-1<<uint(bitDepth), 0)
				w.write(0, el/2)
				w.write(ep, el-el/2)
				w.write(neg, 1)
				continue
			}
			// Huffman code, the c-1 bits below mag's leading one, sign.
			v := e.valCode[c] | (mag<<1)&^(1<<uint(c)) | neg
			if vl := e.valLen[c]; gl+vl <= 64 {
				w.write(g<<vl|v, gl+vl)
			} else {
				w.write(g, gl)
				w.write(v, vl)
			}
		}
		if !w.finish() {
			e.mu.Lock()
			if e.bad < 0 || ci < e.bad {
				e.bad = ci
			}
			e.mu.Unlock()
		}
	}
}

// gapOrder picks the exp-Golomb order for index gaps from the mean gap
// n/k: order ≈ log2(mean) keeps typical gap codes near their entropy.
func gapOrder(n, k int) uint8 {
	if k <= 0 || n <= k {
		return 0
	}
	o := bits.Len64(uint64(n/k)) - 1 //stlint:ignore trunccast k > 0 and n > k are checked above, so the quotient is positive
	if o > 30 {
		o = 30
	}
	return uint8(o)
}

// levelMag returns |level| as a uint64. Levels are clamped to ±2^62 by
// the quantizer, so negation cannot overflow.
func levelMag(level int64) uint64 {
	if level < 0 {
		return uint64(-level) //stlint:ignore trunccast negated only on the negative branch; the quantizer clamps to ±2^62
	}
	return uint64(level)
}

// DecodeInto expands the block into out (which must have length Total)
// on up to workers goroutines, zeroing discarded positions. Output is
// identical for every worker count.
func (b *Block) DecodeInto(out []float64, workers int) error { return decodeInto(b, out, workers) }

// DecodeInto32 is DecodeInto at float32, with no widen-then-narrow round
// trip: lossless blocks reproduce the stored float32 bits, lossy ones
// round once from the float64 dequantized value. It is a separate method
// because codec.Block, an interface, cannot have a generic one.
func (b *Block) DecodeInto32(out []float32, workers int) error { return decodeInto(b, out, workers) }

// decodeInto is the one body behind DecodeInto and DecodeInto32.
func decodeInto[F num.Float](b *Block, out []F, workers int) error {
	if len(out) != b.total {
		return fmt.Errorf("entropy: DecodeInto length %d != total %d", len(out), b.total)
	}
	n := b.total
	if n == 0 {
		return nil
	}
	var dec *huffDecoder
	if !b.lossless && b.retained > 0 {
		var err error
		dec, err = newHuffDecoder(b.lengths)
		if err != nil {
			return err
		}
	}
	q := Quantizer{Step: b.step}
	if !b.lossless && (!(q.Step > 0) || math.IsInf(q.Step, 0)) {
		return fmt.Errorf("entropy: corrupt block: non-positive quantization step %g", q.Step)
	}
	nch := numChunks(n)
	if len(b.chunkLen) != nch {
		return fmt.Errorf("entropy: corrupt block: %d chunks for %d coefficients (want %d)", len(b.chunkLen), n, nch)
	}
	// Chunk payload offsets, validated against the payload length once so
	// the parallel pass can slice without checks.
	offs := make([]int, nch+1)
	for ci, ln := range b.chunkLen {
		offs[ci+1] = offs[ci] + int(ln)
	}
	if offs[nch] != len(b.payload) {
		return fmt.Errorf("entropy: corrupt block: chunk lengths sum to %d, payload is %d bytes", offs[nch], len(b.payload))
	}
	errs := make([]error, nch)
	kcs := make([]int, nch)
	par.For(nch, workers, 1, func(start, end int) {
		for ci := start; ci < end; ci++ {
			kcs[ci], errs[ci] = decodeChunk(b, out, ci, b.payload[offs[ci]:offs[ci+1]], dec, q)
		}
	})
	k := 0
	for ci := range errs {
		if errs[ci] != nil {
			return fmt.Errorf("entropy: chunk %d: %w", ci, errs[ci])
		}
		k += kcs[ci]
	}
	if k != b.retained {
		return fmt.Errorf("entropy: corrupt block: chunks carry %d values, header claims %d", k, b.retained)
	}
	return nil
}

// decodeChunk expands one chunk's bitstream into out[lo:hi], returning
// the number of values it carried.
func decodeChunk[F num.Float](b *Block, out []F, ci int, payload []byte, dec *huffDecoder, q Quantizer) (int, error) {
	lo, hi := chunkBounds(ci, b.total)
	for i := lo; i < hi; i++ {
		out[i] = 0
	}
	r := NewBitReader(payload)
	kcU, err := r.ReadExpGolomb(0)
	if err != nil {
		return 0, err
	}
	if kcU > uint64(hi-lo) { //stlint:ignore trunccast chunkBounds always yields lo < hi
		return 0, fmt.Errorf("entropy: chunk claims %d values for %d coefficients", kcU, hi-lo)
	}
	kc := int(kcU)
	if kc > 0 && !b.lossless && dec == nil {
		// No Huffman table is built for a block whose header retains no
		// values, so a chunk that carries some is corrupt.
		return 0, fmt.Errorf("entropy: chunk claims %d values in a block that retains none", kc)
	}
	pos := lo - 1
	for j := 0; j < kc; j++ {
		gap, err := r.ReadExpGolomb(uint(b.gapK))
		if err != nil {
			return 0, err
		}
		// The next index is pos+1+gap and must stay < hi. pos is at most
		// hi-1 here, so hi-pos-1 is non-negative and the uint64 conversion
		// is safe; an honest encoder only emits gap <= hi-pos-2.
		if gap >= uint64(hi-pos-1) { //stlint:ignore trunccast pos <= hi-1 here per the invariant above
			return 0, fmt.Errorf("entropy: index gap %d runs past chunk end", gap)
		}
		pos += 1 + int(gap)
		if pos >= hi {
			// Unreachable while the gap guard above holds; bounding the
			// index itself keeps every out[pos] write provably in range
			// even if the gap arithmetic is ever reshaped.
			return 0, fmt.Errorf("entropy: decoded index %d runs past chunk end", pos)
		}
		if b.lossless {
			vbits, err := r.ReadBits(32)
			if err != nil {
				return 0, err
			}
			out[pos] = F(math.Float32frombits(uint32(vbits))) //stlint:ignore trunccast ReadBits(32) yields at most 32 bits
			continue
		}
		sym, err := dec.Decode(r)
		if err != nil {
			return 0, err
		}
		var mag uint64
		switch {
		case sym == 0:
			out[pos] = 0
			continue // class 0 carries no sign bit
		case sym <= b.bitDepth:
			extra := uint64(0)
			if sym > 1 {
				extra, err = r.ReadBits(uint(sym - 1)) //stlint:ignore trunccast sym > 1 on this branch
				if err != nil {
					return 0, err
				}
			}
			mag = 1<<uint(sym-1) | extra //stlint:ignore trunccast sym >= 1: the zero class continues above
		default: // escape
			over, err := r.ReadExpGolomb(0)
			if err != nil {
				return 0, err
			}
			if over > uint64(quantMagCap) {
				return 0, fmt.Errorf("entropy: escape magnitude %d exceeds quantizer range", over)
			}
			mag = over + 1<<uint(b.bitDepth)
		}
		sign, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		level := int64(mag) //stlint:ignore trunccast mag is bounded by quantMagCap + 2^31 < 2^63
		if sign == 1 {
			level = -level
		}
		out[pos] = F(q.Dequantize(level)) // at float32: one rounding of the float64 reconstruction
	}
	return kc, nil
}

// WriteTo serializes the block. It implements io.WriterTo.
func (b *Block) WriteTo(w io.Writer) (int64, error) {
	if b.total < 0 || b.retained < 0 {
		return 0, fmt.Errorf("entropy: negative block counts (total %d, retained %d)", b.total, b.retained)
	}
	if len(b.chunkLen) > math.MaxUint32 {
		return 0, fmt.Errorf("entropy: %d chunks exceed the uint32 header field", len(b.chunkLen))
	}
	if len(b.lengths) > 0xff {
		return 0, fmt.Errorf("entropy: %d-symbol alphabet exceeds the byte header field", len(b.lengths))
	}
	hdr := make([]byte, headerSize, headerSize+len(b.lengths)+4*len(b.chunkLen))
	hdr[0], hdr[1], hdr[2] = blockMagic0, blockMagic1, blockMagic2
	hdr[3] = blockVersion
	if b.lossless {
		hdr[4] |= flagLossless
	}
	hdr[5] = byte(b.bitDepth) //stlint:ignore trunccast bit depth is validated to [2, 31] at encode
	hdr[6] = b.gapK
	hdr[7] = byte(len(b.lengths))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(b.total))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(b.retained))
	binary.LittleEndian.PutUint64(hdr[24:32], math.Float64bits(b.step))
	binary.LittleEndian.PutUint32(hdr[32:36], uint32(len(b.chunkLen)))
	hdr = append(hdr, b.lengths...)
	var lb [4]byte
	for _, ln := range b.chunkLen {
		binary.LittleEndian.PutUint32(lb[:], ln)
		hdr = append(hdr, lb[:]...)
	}
	var written int64
	n, err := w.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, err
	}
	n, err = w.Write(b.payload)
	written += int64(n)
	return written, err
}

// Read deserializes a block written by WriteTo. It reads exactly the
// block's serialized bytes from r — safe to call repeatedly on one
// stream — and validates every header field before allocating, so forged
// or corrupt streams fail cleanly here or in DecodeInto, never panic.
func Read(r io.Reader) (*Block, error) {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("entropy: reading block header: %w", err)
	}
	if hdr[0] != blockMagic0 || hdr[1] != blockMagic1 || hdr[2] != blockMagic2 {
		return nil, fmt.Errorf("entropy: bad block magic %q", hdr[0:3])
	}
	if hdr[3] != blockVersion {
		return nil, fmt.Errorf("entropy: unsupported block version %d", hdr[3])
	}
	b := &Block{
		lossless: hdr[4]&flagLossless != 0,
		bitDepth: int(hdr[5]),
		gapK:     hdr[6],
	}
	nsyms := int(hdr[7])
	totalU := binary.LittleEndian.Uint64(hdr[8:16])
	retainedU := binary.LittleEndian.Uint64(hdr[16:24])
	b.step = math.Float64frombits(binary.LittleEndian.Uint64(hdr[24:32]))
	nchU := binary.LittleEndian.Uint32(hdr[32:36])
	if totalU >= maxBlockTotal {
		return nil, fmt.Errorf("entropy: implausible block size %d samples", totalU)
	}
	if retainedU > totalU {
		return nil, fmt.Errorf("entropy: corrupt header (total=%d retained=%d)", totalU, retainedU)
	}
	b.total = int(totalU)
	b.retained = int(retainedU)
	if int(nchU) != numChunks(b.total) {
		return nil, fmt.Errorf("entropy: header claims %d chunks for %d coefficients (want %d)", nchU, b.total, numChunks(b.total))
	}
	if b.lossless {
		if b.bitDepth != 0 || nsyms != 0 {
			return nil, fmt.Errorf("entropy: lossless block with quantizer fields set")
		}
	} else {
		if b.bitDepth < 2 || b.bitDepth > 31 {
			return nil, fmt.Errorf("entropy: bit depth %d outside [2, 31]", b.bitDepth)
		}
		if b.retained > 0 && nsyms != b.bitDepth+2 {
			return nil, fmt.Errorf("entropy: %d-symbol alphabet for bit depth %d (want %d)", nsyms, b.bitDepth, b.bitDepth+2)
		}
		if !(b.step > 0) || math.IsInf(b.step, 0) {
			return nil, fmt.Errorf("entropy: non-positive quantization step %g", b.step)
		}
	}
	if b.gapK > 30 {
		return nil, fmt.Errorf("entropy: gap order %d outside [0, 30]", b.gapK)
	}
	if nsyms > 0 {
		b.lengths = make([]uint8, nsyms)
		if _, err := io.ReadFull(r, b.lengths); err != nil {
			return nil, fmt.Errorf("entropy: reading huffman table: %w", err)
		}
		// Validate the table now so a corrupt block fails at read time,
		// not at first decode.
		if _, err := newHuffDecoder(b.lengths); err != nil {
			return nil, err
		}
	}
	nch := int(nchU)
	b.chunkLen = make([]uint32, nch)
	var payloadBytes int64
	if nch > 0 {
		lens := make([]byte, 4*nch)
		if _, err := io.ReadFull(r, lens); err != nil {
			return nil, fmt.Errorf("entropy: reading chunk lengths: %w", err)
		}
		for ci := range b.chunkLen {
			ln := binary.LittleEndian.Uint32(lens[4*ci:])
			if ln > maxChunkPayload {
				return nil, fmt.Errorf("entropy: chunk %d payload %d exceeds format cap %d", ci, ln, maxChunkPayload)
			}
			b.chunkLen[ci] = ln
			payloadBytes += int64(ln)
		}
	}
	if payloadBytes >= math.MaxInt {
		return nil, fmt.Errorf("entropy: chunk lengths sum to %d bytes, beyond addressable payload", payloadBytes)
	}
	// Read the payload one chunk at a time rather than trusting the summed
	// header lengths with a single up-front make(): a forged header can
	// claim ~64 GiB (65536 chunks at the 1 MiB per-chunk cap) while
	// carrying no payload at all, so memory must only grow as bytes
	// actually arrive off the stream.
	prealloc := payloadBytes
	if prealloc > maxChunkPayload {
		prealloc = maxChunkPayload
	}
	b.payload = make([]byte, 0, prealloc)
	for ci, ln := range b.chunkLen {
		off := len(b.payload)
		b.payload = slices.Grow(b.payload, int(ln))[:off+int(ln)]
		if _, err := io.ReadFull(r, b.payload[off:]); err != nil {
			return nil, fmt.Errorf("entropy: reading chunk %d payload (%d of %d bytes): %w", ci, ln, payloadBytes, err)
		}
	}
	return b, nil
}
