package entropy

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"stwave/internal/fbits"
	"stwave/internal/num"
)

// Encode entropy-codes one dense thresholded coefficient slice, the form
// the tests build: its nonzeros are handed to EncodeSurvivors, so zero
// values are discarded and a float32 slice encodes to the same bytes as
// its widened copy.
func Encode[F num.Float](coeffs []F, p Params, workers int) (*Block, error) {
	var idx []int
	var val []float64
	for i, v := range coeffs {
		if !fbits.Zero(v) {
			idx = append(idx, i)
			val = append(val, float64(v))
		}
	}
	return EncodeSurvivors(len(coeffs), idx, val, p, workers)
}

func TestBitWriterReaderRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type field struct {
		v uint64
		n uint
	}
	var fields []field
	var w BitWriter
	for i := 0; i < 2000; i++ {
		n := uint(rng.Intn(64) + 1)
		v := rng.Uint64()
		if n < 64 {
			v &= (1 << n) - 1
		}
		fields = append(fields, field{v, n})
		w.WriteBits(v, n)
	}
	r := NewBitReader(w.Bytes())
	for i, f := range fields {
		got, err := r.ReadBits(f.n)
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		if got != f.v {
			t.Fatalf("field %d: wrote %#x (%d bits), read %#x", i, f.v, f.n, got)
		}
	}
}

func TestBitReaderTruncation(t *testing.T) {
	r := NewBitReader([]byte{0xff})
	if _, err := r.ReadBits(9); err == nil {
		t.Fatal("9-bit read from 1 byte succeeded")
	}
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("8-bit read from 1 byte failed: %v", err)
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("read past end succeeded")
	}
}

func TestExpGolombRoundtrip(t *testing.T) {
	values := []uint64{0, 1, 2, 3, 7, 8, 255, 256, 1 << 20, 1<<62 - 1, 1 << 62}
	for k := uint(0); k <= 12; k++ {
		var w BitWriter
		for _, v := range values {
			w.WriteExpGolomb(v, k)
		}
		r := NewBitReader(w.Bytes())
		for _, v := range values {
			got, err := r.ReadExpGolomb(k)
			if err != nil {
				t.Fatalf("k=%d v=%d: %v", k, v, err)
			}
			if got != v {
				t.Fatalf("k=%d: wrote %d, read %d", k, v, got)
			}
		}
	}
}

func TestExpGolombRejectsOverlongPrefix(t *testing.T) {
	// 9 zero bytes = a 72-zero prefix, implying a value beyond 64 bits.
	r := NewBitReader(make([]byte, 9))
	if _, err := r.ReadExpGolomb(0); err == nil {
		t.Fatal("overlong exp-golomb prefix accepted")
	}
}

func TestHuffmanRoundtrip(t *testing.T) {
	cases := [][]int64{
		{10, 20, 30, 40},
		{1, 1, 1, 1, 1, 1, 1},
		{1000, 1, 0, 0, 1, 999},
		{0, 0, 5, 0}, // single live symbol
		{1 << 40, 1, 1, 1 << 39, 7},
	}
	for ci, freqs := range cases {
		lengths := huffBuildLengths(freqs)
		codes := huffCodes(lengths)
		dec, err := newHuffDecoder(lengths)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		var w BitWriter
		var want []int
		for s, f := range freqs {
			if f == 0 {
				continue
			}
			for rep := 0; rep < 3; rep++ {
				w.WriteBits(codes[s], uint(lengths[s]))
				want = append(want, s)
			}
		}
		r := NewBitReader(w.Bytes())
		for i, s := range want {
			got, err := dec.Decode(r)
			if err != nil {
				t.Fatalf("case %d sym %d: %v", ci, i, err)
			}
			if got != s {
				t.Fatalf("case %d: wrote symbol %d, decoded %d", ci, s, got)
			}
		}
	}
}

func TestHuffmanKraftValidation(t *testing.T) {
	// Three one-bit codes overcommit the code space.
	if _, err := newHuffDecoder([]uint8{1, 1, 1}); err == nil {
		t.Fatal("overcommitted huffman table accepted")
	}
	if _, err := newHuffDecoder([]uint8{1, 200}); err == nil {
		t.Fatal("code length beyond cap accepted")
	}
	if _, err := newHuffDecoder([]uint8{1, 2, 2}); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
}

func TestHuffmanDeterministicUnderTies(t *testing.T) {
	freqs := []int64{5, 5, 5, 5, 5, 5}
	first := huffBuildLengths(freqs)
	for i := 0; i < 10; i++ {
		if got := huffBuildLengths(freqs); !bytes.Equal(got, first) {
			t.Fatalf("run %d: lengths %v != %v", i, got, first)
		}
	}
}

func TestQuantizerErrorBound(t *testing.T) {
	p := Params{BitDepth: 12, ErrorBound: 1e-3}
	q := p.newQuantizer(50)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		v := (rng.Float64() - 0.5) * 100
		rec := q.Dequantize(q.Quantize(v))
		if math.Abs(rec-v) > p.ErrorBound*(1+1e-12) {
			t.Fatalf("v=%g rec=%g err=%g > bound %g", v, rec, math.Abs(rec-v), p.ErrorBound)
		}
	}
}

func TestQuantizerDegenerateInputs(t *testing.T) {
	q := Params{BitDepth: 16}.newQuantizer(0)
	if !(q.Step > 0) {
		t.Fatalf("degenerate maxMag produced step %g", q.Step)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300} {
		level := q.Quantize(v) // must not panic and must stay in range
		if level > quantMagCap || level < -quantMagCap {
			t.Fatalf("Quantize(%g) = %d outside cap", v, level)
		}
	}
	if (Params{}).Validate() == nil {
		t.Fatal("zero Params validated")
	}
}

// testCoeffs builds a thresholded-looking slice: mostly zeros with a
// seeded sparse scatter of smooth-decay values, like real wavelet detail
// coefficients after thresholding.
func testCoeffs(n, k int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := 0; i < k; i++ {
		pos := rng.Intn(n)
		out[pos] = (rng.Float64() - 0.5) * math.Exp(-10*rng.Float64())
	}
	return out
}

func TestBlockRoundtripLossless(t *testing.T) {
	for _, n := range []int{0, 1, 100, chunkSize, chunkSize + 1, 3*chunkSize + 17} {
		coeffs := testCoeffs(n, n/10, int64(n)+1)
		b, err := Encode(coeffs, Params{Lossless: true}, 4)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		out := make([]float64, n)
		if err := b.DecodeInto(out, 4); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range coeffs {
			want := float64(float32(coeffs[i]))
			if !fbits.Same(out[i], want) {
				t.Fatalf("n=%d i=%d: want %x, got %x", n, i, math.Float64bits(want), math.Float64bits(out[i]))
			}
		}
	}
}

func TestBlockRoundtripLossyWithinBound(t *testing.T) {
	coeffs := testCoeffs(2*chunkSize+123, 4000, 42)
	p := Params{BitDepth: 14, ErrorBound: 1e-6}
	b, err := Encode(coeffs, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(coeffs))
	if err := b.DecodeInto(out, 4); err != nil {
		t.Fatal(err)
	}
	for i, v := range coeffs {
		if fbits.Zero(v) {
			if !fbits.Zero(out[i]) {
				t.Fatalf("i=%d: discarded coefficient decoded to %g", i, out[i])
			}
			continue
		}
		if math.Abs(out[i]-v) > p.ErrorBound*(1+1e-9) {
			t.Fatalf("i=%d: err %g > bound %g", i, math.Abs(out[i]-v), p.ErrorBound)
		}
	}
}

func TestBlockRoundtripBitDepthMode(t *testing.T) {
	coeffs := testCoeffs(chunkSize+55, 2000, 9)
	p := Params{BitDepth: 16}
	b, err := Encode(coeffs, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	// In bit-depth mode the step adapts to the block's own max magnitude,
	// so the bound is step/2 for every in-range value.
	bound := b.Step() / 2 * (1 + 1e-9)
	out := make([]float64, len(coeffs))
	if err := b.DecodeInto(out, 4); err != nil {
		t.Fatal(err)
	}
	for i, v := range coeffs {
		if fbits.Zero(v) {
			continue
		}
		if math.Abs(out[i]-v) > bound {
			t.Fatalf("i=%d: err %g > step/2 %g", i, math.Abs(out[i]-v), bound)
		}
	}
}

func TestBlockDeterministicAcrossWorkers(t *testing.T) {
	coeffs := testCoeffs(4*chunkSize+321, 9000, 11)
	for _, p := range []Params{{Lossless: true}, {BitDepth: 16}, {BitDepth: 10, ErrorBound: 1e-5}} {
		var ref []byte
		for _, workers := range []int{1, 2, 3, 8, 16} {
			b, err := Encode(coeffs, p, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			var buf bytes.Buffer
			if _, err := b.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = buf.Bytes()
			} else if !bytes.Equal(ref, buf.Bytes()) {
				t.Fatalf("params %+v: workers=%d stream differs from workers=1", p, workers)
			}
			// Decode side too: every worker count fills out identically.
			out := make([]float64, len(coeffs))
			if err := b.DecodeInto(out, workers); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestBlockSerializeRoundtrip(t *testing.T) {
	coeffs := testCoeffs(chunkSize*2+7, 3000, 5)
	for _, p := range []Params{{Lossless: true}, {BitDepth: 16}} {
		b, err := Encode(coeffs, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		wn, err := b.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if wn != b.EncodedSizeBytes() {
			t.Fatalf("WriteTo wrote %d bytes, EncodedSizeBytes says %d", wn, b.EncodedSizeBytes())
		}
		// Append trailing garbage: Read must consume exactly the block.
		buf.WriteString("TRAILER")
		rd := bytes.NewReader(buf.Bytes())
		got, err := Read(rd)
		if err != nil {
			t.Fatal(err)
		}
		if rd.Len() != len("TRAILER") {
			t.Fatalf("Read over-consumed: %d trailing bytes left, want %d", rd.Len(), len("TRAILER"))
		}
		if got.Total() != b.Total() || got.Retained() != b.Retained() {
			t.Fatalf("counts changed across serialize: %d/%d vs %d/%d", got.Total(), got.Retained(), b.Total(), b.Retained())
		}
		a, c := make([]float64, len(coeffs)), make([]float64, len(coeffs))
		if err := b.DecodeInto(a, 2); err != nil {
			t.Fatal(err)
		}
		if err := got.DecodeInto(c, 2); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !fbits.Same(a[i], c[i]) {
				t.Fatalf("i=%d: decode differs across serialize", i)
			}
		}
	}
}

func TestBlockOutliersEscape(t *testing.T) {
	// One huge outlier among small values: with a fixed error bound the
	// outlier's level exceeds the bit depth and must take the escape path
	// without losing accuracy beyond the bound.
	coeffs := make([]float64, chunkSize)
	for i := 0; i < 100; i++ {
		coeffs[i*300] = 1e-4
	}
	coeffs[7] = 1e6
	p := Params{BitDepth: 8, ErrorBound: 1e-5}
	b, err := Encode(coeffs, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(coeffs))
	if err := b.DecodeInto(out, 2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[7]-1e6) > p.ErrorBound*(1+1e-9) {
		t.Fatalf("outlier reconstructed as %g", out[7])
	}
}

func TestBlockRejectsWrongLength(t *testing.T) {
	b, err := Encode(make([]float64, 100), Params{BitDepth: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.DecodeInto(make([]float64, 99), 1); err == nil {
		t.Fatal("short output accepted")
	}
	if err := b.DecodeInto32(make([]float32, 99), 1); err == nil {
		t.Fatal("short float32 output accepted")
	}
}

// decodeBoth decodes b at both precisions into fresh buffers of its
// length, so the forged-stream tests hold DecodeInto and DecodeInto32 to
// the same verdict.
func decodeBoth(b *Block, workers int) map[string]error {
	return map[string]error{
		"f64": b.DecodeInto(make([]float64, b.Total()), workers),
		"f32": b.DecodeInto32(make([]float32, b.Total()), workers),
	}
}

// forgeGapOverflowBlock builds a lossless block whose single chunk claims
// one value with an index gap of `gap`: with pos starting at lo-1 the
// decoded index is exactly gap, so gap == total lands one past the end.
func forgeGapOverflowBlock(total int, gap uint64) *Block {
	var w BitWriter
	w.WriteExpGolomb(1, 0)   // kc = 1
	w.WriteExpGolomb(gap, 0) // forged index gap
	w.WriteBits(0, 32)       // float32 payload for the lossless path
	payload := w.Bytes()
	return &Block{
		total:    total,
		retained: 1,
		lossless: true,
		chunkLen: []uint32{uint32(len(payload))}, //stlint:ignore trunccast hand-built payload is a few bytes
		payload:  payload,
	}
}

// TestDecodeRejectsGapReachingChunkEnd is the PoC for the decoder's index
// bounds check: a forged chunk whose one gap lands exactly on the chunk
// end (pos+1+gap == hi) must fail typed instead of writing out[total].
func TestDecodeRejectsGapReachingChunkEnd(t *testing.T) {
	const n = 100
	b := forgeGapOverflowBlock(n, n)
	for prec, err := range decodeBoth(b, 1) {
		if err == nil {
			t.Fatalf("%s: gap landing on the chunk end accepted", prec)
		}
	}
	// The same stream through the serialized path must fail typed too.
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rb, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return // rejecting already at Read is fine
	}
	for prec, err := range decodeBoth(rb, 1) {
		if err == nil {
			t.Fatalf("%s: serialized gap-overflow stream accepted", prec)
		}
	}
}

// TestDecodeRejectsGapCrossingChunkBoundary: in a multi-chunk block a
// forged gap whose index lands in the neighboring chunk's range must fail
// typed — otherwise the write races with the goroutine decoding that chunk.
func TestDecodeRejectsGapCrossingChunkBoundary(t *testing.T) {
	n := chunkSize + 10
	var w0 BitWriter
	w0.WriteExpGolomb(1, 0)
	w0.WriteExpGolomb(chunkSize, 0) // decoded index = chunkSize: chunk 1's range
	w0.WriteBits(0, 32)
	p0 := w0.Bytes()
	var w1 BitWriter
	w1.WriteExpGolomb(0, 0) // chunk 1 carries nothing
	p1 := w1.Bytes()
	b := &Block{
		total:    n,
		retained: 1,
		lossless: true,
		chunkLen: []uint32{uint32(len(p0)), uint32(len(p1))}, //stlint:ignore trunccast hand-built payloads are a few bytes
		payload:  append(append([]byte(nil), p0...), p1...),
	}
	for _, workers := range []int{1, 2} {
		for prec, err := range decodeBoth(b, workers) {
			if err == nil {
				t.Fatalf("%s workers=%d: gap crossing the chunk boundary accepted", prec, workers)
			}
		}
	}
}

// TestDecodeAcceptsLastIndexInChunk guards the other side of the bounds
// check: a value at the final coefficient of a chunk is legitimate and
// must keep round-tripping.
func TestDecodeAcceptsLastIndexInChunk(t *testing.T) {
	for _, n := range []int{1, 100, chunkSize, chunkSize + 1} {
		coeffs := make([]float64, n)
		coeffs[n-1] = 0.75
		b, err := Encode(coeffs, Params{Lossless: true}, 2)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		out := make([]float64, n)
		if err := b.DecodeInto(out, 2); err != nil {
			t.Fatalf("n=%d: last-index value rejected: %v", n, err)
		}
		out32 := make([]float32, n)
		if err := b.DecodeInto32(out32, 2); err != nil {
			t.Fatalf("n=%d: last-index float32 value rejected: %v", n, err)
		}
		if out[n-1] != 0.75 || out32[n-1] != 0.75 {
			t.Fatalf("n=%d: last-index value decoded as %g / %g", n, out[n-1], out32[n-1])
		}
	}
}

// forgeLosslessHeader serializes a syntactically valid lossless block
// header claiming the given total (with retained = total) followed by the
// given chunk-length fields — and no payload.
func forgeLosslessHeader(total uint64, chunkLens []uint32) []byte {
	hdr := make([]byte, headerSize)
	hdr[0], hdr[1], hdr[2] = blockMagic0, blockMagic1, blockMagic2
	hdr[3] = blockVersion
	hdr[4] = flagLossless
	binary.LittleEndian.PutUint64(hdr[8:16], total)
	binary.LittleEndian.PutUint64(hdr[16:24], total)
	binary.LittleEndian.PutUint32(hdr[32:36], uint32(len(chunkLens))) //stlint:ignore trunccast test headers carry a handful of chunks
	var lb [4]byte
	for _, ln := range chunkLens {
		binary.LittleEndian.PutUint32(lb[:], ln)
		hdr = append(hdr, lb[:]...)
	}
	return hdr
}

// TestReadRejectsForgedPayloadSum: a header whose chunk lengths sum to far
// more payload than the stream carries must fail at the first missing
// chunk — memory grows only as payload bytes actually arrive, never from
// the claimed sum alone.
func TestReadRejectsForgedPayloadSum(t *testing.T) {
	nch := 10
	lens := make([]uint32, nch)
	for i := range lens {
		lens[i] = maxChunkPayload
	}
	hdr := forgeLosslessHeader(uint64(nch*chunkSize), lens)
	if _, err := Read(bytes.NewReader(hdr)); err == nil {
		t.Fatal("forged payload sum with no payload bytes accepted")
	}
}

// TestReadRejectsTotalAtCap: totals at or above maxBlockTotal must be
// rejected before narrowing to int — 2^31 overflows int on 32-bit
// platforms.
func TestReadRejectsTotalAtCap(t *testing.T) {
	hdr := forgeLosslessHeader(uint64(maxBlockTotal), nil)
	if _, err := Read(bytes.NewReader(hdr)); err == nil {
		t.Fatal("total == 2^31 accepted")
	}
}

func TestReadRejectsCorruptHeaders(t *testing.T) {
	coeffs := testCoeffs(200, 50, 1)
	b, err := Encode(coeffs, Params{BitDepth: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Flipping any single header byte must fail cleanly at Read or
	// DecodeInto — never panic, never silently succeed with bad counts.
	for off := 0; off < headerSize; off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xff
		blk, err := Read(bytes.NewReader(bad))
		if err != nil {
			continue
		}
		out := make([]float64, blk.Total())
		_ = blk.DecodeInto(out, 2) // error or success both fine; no panic
	}
}
