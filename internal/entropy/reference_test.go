package entropy

// The byte-at-a-time reference encoder: the BitWriter and per-chunk
// encoder the block format was first written with, kept as the oracle
// EncodeSurvivors' word writer must match byte for byte
// (FuzzEncodeMatchesReference), and as the bit writer the stream tests
// forge payloads with.

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// BitWriter appends bits MSB-first to a growing byte buffer. The zero
// value is ready to use; Bytes returns the finished stream with the final
// partial byte zero-padded.
type BitWriter struct {
	buf  []byte
	acc  uint64 // staged bits, left-aligned within the low `nacc` bits
	nacc uint   // number of staged bits in acc (< 8 after any Write)
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64]; bits of v above the low n are ignored.
func (w *BitWriter) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	// Drain whole output bytes while the staged bits plus the remaining
	// input cover one. acc always holds fewer than 8 bits between calls.
	for w.nacc+n >= 8 {
		take := 8 - w.nacc // bits of v consumed by this output byte
		shift := n - take
		w.buf = append(w.buf, byte(w.acc<<take|v>>shift)) //stlint:ignore trunccast packing exactly the top 8 staged bits into one output byte
		w.acc, w.nacc = 0, 0
		n = shift
		if n < 64 {
			v &= (1 << n) - 1
		}
	}
	if n > 0 {
		w.acc = w.acc<<n | v
		w.nacc += n
	}
}

// WriteBit appends a single bit (any nonzero b writes 1).
func (w *BitWriter) WriteBit(b uint) {
	w.WriteBits(uint64(b&1), 1)
}

// WriteExpGolomb appends v in order-k exponential-Golomb form: with
// v' = v + 2^k and n = bits.Len(v'), it writes n-1-k zero bits followed by
// the n bits of v'. Order 0 codes 0 as "1", 1 as "010", 2 as "011"…;
// higher orders trade a longer minimum code for flatter growth, which
// suits streams whose typical value is near 2^k.
func (w *BitWriter) WriteExpGolomb(v uint64, k uint) {
	if k > 62 {
		k = 62
	}
	// v + 2^k can overflow uint64 only for v > 2^64 - 2^k; callers code
	// magnitudes clamped far below that (see Quantizer), but saturate
	// defensively instead of wrapping into a malformed stream.
	if v > ^uint64(0)-(1<<k) {
		v = ^uint64(0) - (1 << k)
	}
	vp := v + 1<<k
	n := uint(bits.Len64(vp)) //stlint:ignore trunccast bits.Len64 of a nonzero value is in [1, 64]
	zeros := n - 1 - k
	for zeros > 0 {
		take := zeros
		if take > 32 {
			take = 32
		}
		w.WriteBits(0, take)
		zeros -= take
	}
	w.WriteBits(vp, n)
}

// BitLen returns the number of bits written so far.
func (w *BitWriter) BitLen() int { return len(w.buf)*8 + int(w.nacc) } //stlint:ignore trunccast acc holds fewer than 8 bits between calls

// Bytes returns the finished stream, zero-padding the final partial byte.
// The writer may not be used after Bytes.
func (w *BitWriter) Bytes() []byte {
	if w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.nacc))) //stlint:ignore trunccast zero-padding the final partial byte is the contract
		w.acc, w.nacc = 0, 0
	}
	return w.buf
}

// Reset drops all written bits but keeps the underlying buffer capacity,
// so a pooled writer can be reused across chunks without reallocating.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.nacc = 0, 0
}

// encodeChunk produces one chunk's bitstream from its survivors (idx
// ascending, all >= lo, the chunk's first coefficient): retained count,
// then (gap, value) pairs.
func encodeChunk(idx []int, val []float64, lo int, b *Block, q Quantizer, codes []uint64) []byte {
	kc := len(idx)
	if kc == 0 {
		// An empty chunk still writes its zero count so the decoder can
		// process chunks independently.
		var w BitWriter
		w.WriteExpGolomb(0, 0)
		return w.Bytes()
	}
	w := BitWriter{buf: make([]byte, 0, 16+kc*6)}
	w.WriteExpGolomb(uint64(kc), 0) //stlint:ignore trunccast kc is a non-negative survivor count
	prev := lo - 1
	esc := len(codes) - 1 // the escape symbol is the table's last entry (b.bitDepth+1)
	for j, i := range idx {
		v := val[j]
		w.WriteExpGolomb(uint64(i-prev-1), uint(b.gapK)) //stlint:ignore trunccast gap between ascending indices is non-negative
		prev = i
		if b.lossless {
			w.WriteBits(uint64(math.Float32bits(float32(v))), 32) //stlint:ignore trunccast the raw-float32 lossless mode stores 32-bit samples by contract
			continue
		}
		level := q.Quantize(v)
		mag := levelMag(level)
		c := magClass(mag)
		if c > b.bitDepth {
			w.WriteBits(codes[esc], uint(b.lengths[esc]))
			w.WriteExpGolomb(mag-1<<uint(b.bitDepth), 0)
		} else {
			w.WriteBits(codes[c], uint(b.lengths[c]))
			if c > 0 {
				w.WriteBits(mag-1<<uint(c-1), uint(c-1)) //stlint:ignore trunccast c > 0 on this branch
			}
		}
		if c > 0 {
			if level < 0 {
				w.WriteBit(1)
			} else {
				w.WriteBit(0)
			}
		}
	}
	return w.Bytes()
}

// encodeSurvivorsRef is EncodeSurvivors as first written: serial, with
// every survivor quantized in the histogram pass and again in
// encodeChunk, and chunk payloads grown byte by byte.
func encodeSurvivorsRef(total int, idx []int, val []float64, p Params) *Block {
	b := &Block{total: total, retained: len(idx), lossless: p.Lossless, bitDepth: p.BitDepth}
	if p.Lossless {
		b.bitDepth = 0
	}
	nch := numChunks(total)
	b.chunkLen = make([]uint32, nch)
	if total == 0 {
		return b
	}
	maxMag := 0.0
	for _, v := range val {
		maxMag = math.Max(maxMag, math.Abs(v))
	}
	q := p.newQuantizer(maxMag)
	b.step = q.Step
	b.gapK = gapOrder(total, b.retained)
	var codes []uint64
	if !p.Lossless && b.retained > 0 {
		hist := make([]int64, b.bitDepth+2)
		for _, v := range val {
			hist[classSymbol(q.Quantize(v), b.bitDepth)]++
		}
		b.lengths = huffBuildLengths(hist)
		codes = make([]uint64, len(hist))
		huffCodes(b.lengths, codes)
	}
	for ci := 0; ci < nch; ci++ {
		lo := sort.SearchInts(idx, ci*chunkSize)
		hi := sort.SearchInts(idx, (ci+1)*chunkSize)
		c := encodeChunk(idx[lo:hi], val[lo:hi], ci*chunkSize, b, q, codes)
		b.chunkLen[ci] = uint32(len(c)) //stlint:ignore trunccast a chunk payload is far below 4 GiB
		b.payload = append(b.payload, c...)
	}
	return b
}

// FuzzEncodeMatchesReference holds EncodeSurvivors to the reference
// encoder byte for byte over random survivor lists: any total (multi-chunk
// included), bit depths 2–31, adaptive, error-bound and lossless modes,
// magnitudes spread enough to escape, and single-symbol tables (every
// value one magnitude).
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add(int64(1), uint32(1000), uint16(50), uint8(16), uint8(0), uint8(1))
	f.Add(int64(2), uint32(3*chunkSize+17), uint16(9000), uint8(31), uint8(1), uint8(2))
	f.Add(int64(3), uint32(chunkSize), uint16(4000), uint8(2), uint8(2), uint8(3))
	f.Add(int64(4), uint32(70000), uint16(3000), uint8(8), uint8(3), uint8(1))
	f.Add(int64(5), uint32(0), uint16(0), uint8(16), uint8(0), uint8(1))
	f.Add(int64(6), uint32(5000), uint16(5000), uint8(24), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, total uint32, k uint16, depth, mode, workers uint8) {
		n := int(total % (4*chunkSize + 100))
		rng := rand.New(rand.NewSource(seed))
		idx, val := randomSurvivors(rng, n, int(k), mode%5)
		p := Params{BitDepth: int(depth%30) + 2}
		switch mode % 5 {
		case 1:
			p.ErrorBound = math.Ldexp(1, rng.Intn(40)-30) // small bounds escape
		case 2:
			p = Params{Lossless: true}
		}
		got, err := EncodeSurvivors(n, idx, val, p, int(workers%4)+1)
		if err != nil {
			t.Fatal(err)
		}
		var gb, wb bytes.Buffer
		if _, err := got.WriteTo(&gb); err != nil {
			t.Fatal(err)
		}
		if _, err := encodeSurvivorsRef(n, idx, val, p).WriteTo(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("n=%d k=%d params %+v: %d bytes, reference %d bytes", n, len(idx), p, gb.Len(), wb.Len())
		}
	})
}

// randomSurvivors draws up to k distinct ascending indices in [0, n) and
// nonzero values. Shape 3 gives every value one magnitude (a
// single-symbol table); shape 4 spreads magnitudes over 2^±60 so
// adaptive steps push small values to class 0 and error bounds escape.
func randomSurvivors(rng *rand.Rand, n, k int, shape uint8) ([]int, []float64) {
	if n == 0 {
		return nil, nil
	}
	k = min(k, n)
	seen := make(map[int]bool, k)
	var idx []int
	for len(idx) < k {
		i := rng.Intn(n)
		if rng.Intn(4) == 0 && len(idx) > 0 {
			i = min(idx[len(idx)-1]+1, n-1) // runs of zero gaps
		}
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	val := make([]float64, len(idx))
	for j := range val {
		switch shape {
		case 3:
			val[j] = 0.75
		case 4:
			val[j] = math.Ldexp(rng.Float64()+0.5, rng.Intn(120)-60)
		default:
			val[j] = rng.NormFloat64() * math.Exp(-8*rng.Float64())
		}
		if rng.Intn(2) == 0 {
			val[j] = -val[j]
		}
	}
	return idx, val
}

// TestEncodeSurvivorsAllocs pins the encoder's allocations per block: the
// byte-at-a-time encoder made 27 (adaptive) and 13 (lossless) on this
// fixture at one worker, and the word writer must stay at half or less.
func TestEncodeSurvivorsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	coeffs := testCoeffs(4*chunkSize+321, 9000, 11)
	n := len(coeffs)
	var idx []int
	var val []float64
	for i, v := range coeffs {
		if v != 0 {
			idx, val = append(idx, i), append(val, v)
		}
	}
	for _, c := range []struct {
		p      Params
		parent float64
	}{{Params{BitDepth: 16}, 27}, {Params{Lossless: true}, 13}} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := EncodeSurvivors(n, idx, val, c.p, 1); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.parent/2 {
			t.Errorf("params %+v: %v allocations per block, want <= %v", c.p, got, c.parent/2)
		}
	}
}

// classSymbol maps a quantized level to its Huffman symbol: the magnitude
// class for in-range levels, the escape symbol (bitDepth+1) beyond.
func classSymbol(level int64, bitDepth int) int {
	mag := levelMag(level)
	c := magClass(mag)
	if c > bitDepth {
		return bitDepth + 1
	}
	return c
}
