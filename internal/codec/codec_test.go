package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"stwave/internal/compress"
	"stwave/internal/entropy"
	"stwave/internal/fbits"
	"stwave/internal/num"
)

func testSlices(t *testing.T, nslices, n int) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(nslices)*1000 + int64(n)))
	datas := make([][]float64, nslices)
	for s := range datas {
		d := make([]float64, n)
		for i := 0; i < n/16; i++ {
			d[rng.Intn(n)] = rng.NormFloat64()
		}
		datas[s] = d
	}
	return datas
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"sparse", "deflate", "entropy"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, c.Name())
		}
		back, err := ByID(c.ID())
		if err != nil {
			t.Fatalf("ByID(%d): %v", c.ID(), err)
		}
		if back.Name() != name {
			t.Fatalf("ByID(%d) resolved %q, want %q", c.ID(), back.Name(), name)
		}
	}
	if _, err := ByName("zstd"); err == nil {
		t.Fatal("unknown codec name resolved")
	}
	if _, err := ByID(200); err == nil {
		t.Fatal("unknown codec ID resolved")
	}
	if Default().ID() != IDSparse {
		t.Fatalf("default codec is %v, want sparse", Default().ID())
	}
	if got := ID(200).String(); got != "codec(200)" {
		t.Fatalf("unknown ID String() = %q", got)
	}
	if got := IDEntropy.String(); got != "entropy" {
		t.Fatalf("IDEntropy.String() = %q", got)
	}
}

func TestCodecRoundtrip(t *testing.T) {
	datas := testSlices(t, 4, 5000)
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := c.EncodeSlices(datas, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(blocks) != len(datas) {
			t.Fatalf("%s: %d blocks for %d slices", name, len(blocks), len(datas))
		}
		var buf bytes.Buffer
		for _, b := range blocks {
			if _, err := c.WriteBlock(&buf, b); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for si, want := range datas {
			b, err := c.ReadBlock(&buf)
			if err != nil {
				t.Fatalf("%s slice %d: %v", name, si, err)
			}
			if b.Total() != len(want) {
				t.Fatalf("%s slice %d: total %d, want %d", name, si, b.Total(), len(want))
			}
			out := make([]float64, len(want))
			if err := b.DecodeInto(out, 3); err != nil {
				t.Fatalf("%s slice %d: %v", name, si, err)
			}
			// All shipped codecs keep at least float32 precision on the
			// fixture's magnitude range (entropy's 16-bit default is only
			// coarser than that beyond ~2^16 dynamic range).
			for i := range want {
				w32 := float64(float32(want[i]))
				tol := math.Abs(w32) * 1e-3
				if name == "entropy" {
					tol += 1e-3
				}
				if math.Abs(out[i]-w32) > tol {
					t.Fatalf("%s slice %d i=%d: got %g, want ~%g", name, si, i, out[i], w32)
				}
			}
		}
		if buf.Len() != 0 {
			t.Fatalf("%s: %d trailing bytes after all blocks", name, buf.Len())
		}
	}
}

func TestEntropyLosslessMatchesSparseBitExactly(t *testing.T) {
	datas := testSlices(t, 3, 8000)
	lossless, err := EntropyWith(entropy.Params{Lossless: true})
	if err != nil {
		t.Fatal(err)
	}
	sBlocks, err := Sparse().EncodeSlices(datas, 4)
	if err != nil {
		t.Fatal(err)
	}
	eBlocks, err := lossless.EncodeSlices(datas, 4)
	if err != nil {
		t.Fatal(err)
	}
	for si := range datas {
		if sBlocks[si].Retained() != eBlocks[si].Retained() {
			t.Fatalf("slice %d: sparse retained %d, entropy %d", si, sBlocks[si].Retained(), eBlocks[si].Retained())
		}
		a := make([]float64, len(datas[si]))
		b := make([]float64, len(datas[si]))
		if err := sBlocks[si].DecodeInto(a, 2); err != nil {
			t.Fatal(err)
		}
		if err := eBlocks[si].DecodeInto(b, 2); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !fbits.Same(a[i], b[i]) {
				t.Fatalf("slice %d i=%d: sparse %x, entropy %x", si, i,
					math.Float64bits(a[i]), math.Float64bits(b[i]))
			}
		}
	}
}

func TestWriteBlockRejectsForeignBlocks(t *testing.T) {
	datas := testSlices(t, 1, 100)
	eBlocks, err := Entropy().EncodeSlices(datas, 1)
	if err != nil {
		t.Fatal(err)
	}
	sBlocks, err := Sparse().EncodeSlices(datas, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Sparse().WriteBlock(&buf, eBlocks[0]); err == nil {
		t.Fatal("sparse accepted an entropy block")
	}
	if _, err := Entropy().WriteBlock(&buf, sBlocks[0]); err == nil {
		t.Fatal("entropy accepted a sparse block")
	}
}

func TestEntropyWithValidates(t *testing.T) {
	if _, err := EntropyWith(entropy.Params{BitDepth: 1}); err == nil {
		t.Fatal("invalid params accepted")
	}
	c, err := EntropyWith(entropy.Params{BitDepth: 12, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() != IDEntropy {
		t.Fatalf("tuned entropy codec has ID %v", c.ID())
	}
}

func TestWrapSparseAccessors(t *testing.T) {
	sb := compress.NewSparseBlock([]float64{0, 1.5, 0, -2})
	b := WrapSparse(sb)
	if b.Total() != 4 || b.Retained() != 2 {
		t.Fatalf("wrapped accessors: total %d retained %d", b.Total(), b.Retained())
	}
	if b.EncodedSizeBytes() != sb.EncodedSizeBytes() {
		t.Fatal("EncodedSizeBytes not forwarded")
	}
	var is IdealSizer = b
	if is.IdealSizeBytes() != sb.IdealSizeBytes() {
		t.Fatal("IdealSizeBytes not forwarded")
	}
	var ds DeflatedSizer = b
	if _, err := ds.DeflatedSizeBytes(); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeDeterministicAcrossWorkers pins every codec's stream across
// worker counts and precisions: EncodeSlices32(x) must write the bytes
// EncodeSlices writes for the widened copy of x, and DecodeInto32 must
// return float32(DecodeInto) bit for bit (exact for sparse and
// entropy-lossless, one rounding of the dequantized value for lossy
// entropy).
func TestEncodeDeterministicAcrossWorkers(t *testing.T) {
	datas := testSlices(t, 5, 40000)
	datas32 := make([][]float32, len(datas))
	widened := make([][]float64, len(datas))
	for i, d := range datas {
		datas32[i] = num.Narrow(d)
		widened[i] = num.Widen(datas32[i])
	}
	lossless, err := EntropyWith(entropy.Params{Lossless: true})
	if err != nil {
		t.Fatal(err)
	}
	codecs := map[string]Codec{"entropy-lossless": lossless}
	for _, name := range Names() {
		if codecs[name], err = ByName(name); err != nil {
			t.Fatal(err)
		}
	}
	for name, c := range codecs {
		ref := encodeStream(t, c, datas, 1)
		ref32 := encodeStream(t, c, widened, 1)
		for _, workers := range []int{1, 2, 7, 16} {
			if !bytes.Equal(ref, encodeStream(t, c, datas, workers)) {
				t.Fatalf("%s: workers=%d stream differs from workers=1", name, workers)
			}
			blocks, err := c.EncodeSlices32(datas32, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref32, writeStream(t, c, blocks)) {
				t.Fatalf("%s: workers=%d f32 stream differs from the widened f64 stream", name, workers)
			}
			for si, b := range blocks {
				out64 := make([]float64, b.Total())
				out32 := make([]float32, b.Total())
				if err := b.DecodeInto(out64, workers); err != nil {
					t.Fatal(err)
				}
				if err := b.DecodeInto32(out32, workers); err != nil {
					t.Fatal(err)
				}
				for i := range out32 {
					if math.Float32bits(out32[i]) != math.Float32bits(float32(out64[i])) {
						t.Fatalf("%s slice %d i=%d: DecodeInto32 %g, float32(DecodeInto) %g", name, si, i, out32[i], float32(out64[i]))
					}
				}
			}
		}
	}
}

func encodeStream(t *testing.T, c Codec, datas [][]float64, workers int) []byte {
	t.Helper()
	blocks, err := c.EncodeSlices(datas, workers)
	if err != nil {
		t.Fatal(err)
	}
	return writeStream(t, c, blocks)
}

func writeStream(t *testing.T, c Codec, blocks []Block) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, b := range blocks {
		if _, err := c.WriteBlock(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}
