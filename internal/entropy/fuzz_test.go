package entropy

import (
	"bytes"
	"math"
	"testing"
)

// FuzzEntropyRoundtrip: quantize → encode → decode → dequantize must never
// panic and must reconstruct every retained coefficient within the
// quantizer's error bound (step/2 in adaptive bit-depth mode).
func FuzzEntropyRoundtrip(f *testing.F) {
	f.Add([]byte{}, uint8(16))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(8))
	seed := make([]byte, 8*6)
	for i, v := range []float64{0, 1.5, -2.25, 1e-9, -1e12, math.Pi} {
		binary := math.Float64bits(v)
		for j := 0; j < 8; j++ {
			seed[8*i+j] = byte(binary >> (8 * j))
		}
	}
	f.Add(seed, uint8(12))

	f.Fuzz(func(t *testing.T, data []byte, depth uint8) {
		coeffs := make([]float64, len(data)/8)
		for i := range coeffs {
			var u uint64
			for j := 0; j < 8; j++ {
				u |= uint64(data[8*i+j]) << (8 * j)
			}
			v := math.Float64frombits(u)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // thresholded coefficients are always finite
			}
			coeffs[i] = v
		}
		p := Params{BitDepth: int(depth%30) + 2}
		b, err := Encode(coeffs, p, 2)
		if err != nil {
			t.Fatalf("encode rejected valid params: %v", err)
		}
		out := make([]float64, len(coeffs))
		if err := b.DecodeInto(out, 2); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		// The adaptive step guarantees |err| <= step/2 for every retained
		// value; the relative slack absorbs the float64 division rounding.
		bound := b.Step()/2 + math.Abs(b.Step())*1e-9
		for i, v := range coeffs {
			diff := math.Abs(out[i] - v)
			if diff > bound+math.Abs(v)*1e-12 {
				t.Fatalf("i=%d v=%g: err %g > bound %g (step %g)", i, v, diff, bound, b.Step())
			}
		}
	})
}

// FuzzBlockRead: arbitrary bytes through Read/DecodeInto must never panic;
// whatever Read accepts must decode or fail cleanly, and DecodeInto32 must
// reach the same verdict with float32(DecodeInto) as its output.
func FuzzBlockRead(f *testing.F) {
	coeffs := make([]float64, 300)
	coeffs[3], coeffs[250] = 0.5, -1.25
	for _, p := range []Params{{Lossless: true}, {BitDepth: 12}} {
		b, err := Encode(coeffs, p, 1)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("STE"))
	// Regression seed: a forged chunk claiming one value whose index gap
	// lands exactly on the chunk end previously wrote out[total] and
	// panicked inside DecodeInto's parallel pass.
	{
		fb := forgeGapOverflowBlock(100, 100)
		var buf bytes.Buffer
		if _, err := fb.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if b.Retained() > b.Total() {
			t.Fatalf("retained %d > total %d accepted", b.Retained(), b.Total())
		}
		out := make([]float64, b.Total())
		out32 := make([]float32, b.Total())
		err64, err32 := b.DecodeInto(out, 2), b.DecodeInto32(out32, 2)
		if (err64 == nil) != (err32 == nil) {
			t.Fatalf("DecodeInto error %v, DecodeInto32 error %v", err64, err32)
		}
		if err64 != nil {
			return
		}
		for i := range out32 {
			// Widening quiets a signaling NaN, so NaNs compare by class.
			a, w := out32[i], float32(out[i])
			if math.Float32bits(a) != math.Float32bits(w) && !(math.IsNaN(float64(a)) && math.IsNaN(float64(w))) {
				t.Fatalf("i=%d: DecodeInto32 %x, float32(DecodeInto) %x", i, math.Float32bits(a), math.Float32bits(w))
			}
		}
	})
}
