package codec

import (
	"bytes"
	"math"
	"testing"
)

// FuzzCodecDecode: arbitrary bytes through every registered codec's
// ReadBlock must never panic, and whatever a codec accepts must satisfy
// the Block invariants and decode (or fail) cleanly — at both precisions,
// with DecodeInto32 reaching DecodeInto's verdict and float32 output.
func FuzzCodecDecode(f *testing.F) {
	coeffs := make([]float64, 400)
	coeffs[7], coeffs[350] = 0.5, -1.25
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		blocks, err := c.EncodeSlices([][]float64{coeffs}, 1)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := c.WriteBlock(&buf, blocks[0]); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("STE"))
	f.Add(make([]byte, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range Names() {
			c, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.ReadBlock(bytes.NewReader(data))
			if err != nil {
				continue
			}
			if b.Retained() > b.Total() {
				t.Fatalf("%s: retained %d > total %d accepted", name, b.Retained(), b.Total())
			}
			// Error or success both fine; no panic, and both precisions agree.
			out := make([]float64, b.Total())
			out32 := make([]float32, b.Total())
			err64, err32 := b.DecodeInto(out, 2), b.DecodeInto32(out32, 2)
			if (err64 == nil) != (err32 == nil) {
				t.Fatalf("%s: DecodeInto error %v, DecodeInto32 error %v", name, err64, err32)
			}
			if err64 != nil {
				continue
			}
			for i := range out32 {
				// Widening quiets a signaling NaN, so NaNs compare by class.
				a, w := out32[i], float32(out[i])
				if math.Float32bits(a) != math.Float32bits(w) && !(math.IsNaN(float64(a)) && math.IsNaN(float64(w))) {
					t.Fatalf("%s i=%d: DecodeInto32 %x, float32(DecodeInto) %x", name, i, math.Float32bits(a), math.Float32bits(w))
				}
			}
		}
	})
}
