package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"stwave/internal/compress"
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

// FuzzEncodeSurvivors: for every registered codec and both precisions,
// encoding a survivor list must give the bytes of EncodeSlices (or
// EncodeSlices32) on the densified slice. Records of 10 bytes are (gap to
// the next index, value bits); zero values are skipped as the contract
// requires, and at float32 every value is narrowed first so the dense
// slice can hold it exactly.
func FuzzEncodeSurvivors(f *testing.F) {
	rec := func(gap uint16, v float64) []byte {
		b := binary.LittleEndian.AppendUint16(nil, gap)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	seed := append(rec(3, 1.5), rec(0, -2.25)...)
	seed = append(seed, rec(40000, math.NaN())...)
	seed = append(seed, rec(1, math.Inf(-1))...)
	f.Add(seed, uint16(50000), uint8(3), false)
	f.Add(seed, uint16(9), uint8(1), true)
	f.Add([]byte{}, uint16(0), uint8(2), false)

	f.Fuzz(func(t *testing.T, raw []byte, total uint16, workers uint8, f32 bool) {
		n := int(total)
		s := compress.Survivors{Total: n}
		for i := -1; len(raw) >= 10; raw = raw[10:] {
			i += 1 + int(binary.LittleEndian.Uint16(raw))
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[2:]))
			if f32 {
				v = float64(float32(v))
			}
			if i >= n {
				break
			}
			if v == 0 {
				continue
			}
			s.Idx, s.Val = append(s.Idx, i), append(s.Val, v)
		}
		w := int(workers%8) + 1
		for _, name := range Names() {
			c, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.EncodeSurvivors([]compress.Survivors{s}, w)
			if err != nil {
				t.Fatalf("%s: EncodeSurvivors: %v", name, err)
			}
			var want []Block
			if f32 {
				dense := make([]float32, n)
				for j, i := range s.Idx {
					dense[i] = float32(s.Val[j])
				}
				want, err = c.EncodeSlices32([][]float32{dense}, w)
			} else {
				dense := make([]float64, n)
				for j, i := range s.Idx {
					dense[i] = s.Val[j]
				}
				want, err = c.EncodeSlices([][]float64{dense}, w)
			}
			if err != nil {
				t.Fatalf("%s: dense encode: %v", name, err)
			}
			var gb, wb bytes.Buffer
			if _, err := c.WriteBlock(&gb, got[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := c.WriteBlock(&wb, want[0]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
				t.Fatalf("%s f32=%v: survivor bytes differ from the densified encode (%d vs %d bytes)", name, f32, gb.Len(), wb.Len())
			}
		}
	})
}
