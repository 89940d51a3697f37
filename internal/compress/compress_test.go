package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"stwave/internal/num"
)

func TestKeepCount(t *testing.T) {
	cases := []struct {
		total int
		ratio float64
		want  int
	}{
		{100, 1, 100}, {100, 8, 12}, {100, 128, 1}, {1000, 16, 62},
		{0, 8, 0}, {5, 1000, 1},
	}
	for _, c := range cases {
		got, err := KeepCount(c.total, c.ratio)
		if err != nil {
			t.Errorf("KeepCount(%d, %g): %v", c.total, c.ratio, err)
			continue
		}
		if got != c.want {
			t.Errorf("KeepCount(%d, %g) = %d, want %d", c.total, c.ratio, got, c.want)
		}
	}
	for _, r := range []float64{0.5, 0, -3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := KeepCount(100, r); err == nil {
			t.Errorf("KeepCount(100, %g) accepted", r)
		}
	}
}

func TestThresholdKeepsLargest(t *testing.T) {
	coeffs := []float64{1, -9, 3, 0.5, -7, 2, 8, -0.1}
	kept := Threshold(coeffs, 3)
	if kept != 3 {
		t.Fatalf("kept = %d, want 3", kept)
	}
	want := []float64{0, -9, 0, 0, -7, 0, 8, 0}
	for i := range want {
		if coeffs[i] != want[i] {
			t.Fatalf("coeffs = %v, want %v", coeffs, want)
		}
	}
}

func TestThresholdEdgeCases(t *testing.T) {
	coeffs := []float64{1, 2, 3}
	if kept := Threshold(coeffs, 10); kept != 3 {
		t.Errorf("keep > len: kept = %d, want 3", kept)
	}
	for _, v := range coeffs {
		if v == 0 {
			t.Error("keep > len must not discard anything")
		}
	}
	if kept := Threshold(coeffs, 0); kept != 0 {
		t.Errorf("keep 0: kept = %d", kept)
	}
	for _, v := range coeffs {
		if v != 0 {
			t.Error("keep 0 must zero everything")
		}
	}
	if kept := Threshold[float64](nil, 0); kept != 0 {
		t.Errorf("nil input: kept = %d", kept)
	}
}

func TestThresholdTiesExactBudget(t *testing.T) {
	// 6 coefficients with equal magnitude: exactly `keep` must survive.
	coeffs := []float64{5, -5, 5, -5, 5, -5}
	kept := Threshold(coeffs, 4)
	if kept != 4 {
		t.Fatalf("kept = %d, want 4", kept)
	}
	nonzero := 0
	for _, v := range coeffs {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 4 {
		t.Errorf("nonzero after tie-threshold = %d, want exactly 4", nonzero)
	}
}

func TestThresholdRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coeffs := make([]float64, 1024)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64()
	}
	kept, err := ThresholdRatio(coeffs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 128 {
		t.Errorf("kept = %d, want 128", kept)
	}
	nonzero := 0
	for _, v := range coeffs {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 128 {
		t.Errorf("nonzero = %d, want 128", nonzero)
	}
	if _, err := ThresholdRatio(coeffs, 0); err == nil {
		t.Error("expected error for ratio 0")
	}
}

func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200) + 1
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		sorted := append([]float64(nil), a...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		k := rng.Intn(n)
		got := selectKth(append([]float64(nil), a...), k)
		if got != sorted[k] {
			t.Fatalf("selectKth(k=%d, n=%d) = %g, want %g", k, n, got, sorted[k])
		}
	}
}

func TestSparseBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	coeffs := make([]float64, 500)
	for i := range coeffs {
		coeffs[i] = float64(float32(rng.NormFloat64())) // float32-exact values
	}
	Threshold(coeffs, 50)
	b := NewSparseBlock(coeffs)
	if b.Retained() != 50 {
		t.Fatalf("Retained = %d, want 50", b.Retained())
	}
	var buf bytes.Buffer
	n, err := b.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != b.EncodedSizeBytes() || int64(buf.Len()) != n {
		t.Errorf("WriteTo wrote %d bytes, EncodedSizeBytes = %d, buffer = %d", n, b.EncodedSizeBytes(), buf.Len())
	}
	b2, err := ReadSparseBlock(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dec := b2.Decode()
	for i := range coeffs {
		if dec[i] != coeffs[i] {
			t.Fatalf("decoded[%d] = %g, want %g", i, dec[i], coeffs[i])
		}
	}
}

func TestSparseBlockDecodeInto(t *testing.T) {
	coeffs := []float64{0, 1, 0, -2, 0}
	b := NewSparseBlock(coeffs)
	out := make([]float64, 5)
	// Pre-dirty the output to verify zeros are written.
	for i := range out {
		out[i] = 99
	}
	if err := DecodeInto(b, out, 1); err != nil {
		t.Fatal(err)
	}
	for i := range coeffs {
		if out[i] != coeffs[i] {
			t.Fatalf("DecodeInto = %v, want %v", out, coeffs)
		}
	}
	if err := DecodeInto(b, make([]float64, 4), 1); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestSparseBlockSizes(t *testing.T) {
	coeffs := make([]float64, 800)
	coeffs[13] = 1
	coeffs[700] = -1
	b := NewSparseBlock(coeffs)
	if got := b.IdealSizeBytes(); got != 8 {
		t.Errorf("IdealSizeBytes = %d, want 8", got)
	}
	want := int64(16 + 100 + 8)
	if got := b.EncodedSizeBytes(); got != want {
		t.Errorf("EncodedSizeBytes = %d, want %d", got, want)
	}
}

func TestReadSparseBlockCorrupt(t *testing.T) {
	// Truncated header.
	if _, err := ReadSparseBlock(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("expected error on truncated header")
	}
	// Valid header, bitmap popcount disagreeing with retained count.
	var buf bytes.Buffer
	b := NewSparseBlock([]float64{1, 0, 2, 0})
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[16] = 0xFF // corrupt bitmap: 4 bits set, header says 2
	if _, err := ReadSparseBlock(bytes.NewReader(raw)); err == nil {
		t.Error("expected popcount-mismatch error")
	}
}

// Property: Threshold keeps exactly min(keep, n) coefficients, and every
// retained magnitude is >= every discarded magnitude.
func TestQuickThresholdInvariants(t *testing.T) {
	prop := func(seed int64, nRaw uint8, keepRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%100 + 1
		keep := int(keepRaw) % (n + 10)
		orig := make([]float64, n)
		for i := range orig {
			orig[i] = rng.NormFloat64()
		}
		coeffs := append([]float64(nil), orig...)
		Threshold(coeffs, keep)
		wantKept := keep
		if wantKept > n {
			wantKept = n
		}
		var minKept = math.Inf(1)
		var maxDiscarded float64
		kept := 0
		for i, v := range coeffs {
			if v != 0 {
				if v != orig[i] {
					return false // retained values must be unchanged
				}
				kept++
				if a := math.Abs(v); a < minKept {
					minKept = a
				}
			} else if a := math.Abs(orig[i]); a > maxDiscarded {
				maxDiscarded = a
			}
		}
		// Note: original zeros also count as "discarded"; with continuous
		// random data, exact zeros are improbable, so kept == wantKept.
		if kept != wantKept {
			return false
		}
		if kept > 0 && kept < n && minKept < maxDiscarded {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: sparse encode/decode is lossless for float32-representable data.
func TestQuickSparseRoundTrip(t *testing.T) {
	prop := func(seed int64, nRaw uint8, keepRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		coeffs := make([]float64, n)
		for i := range coeffs {
			coeffs[i] = float64(float32(rng.NormFloat64()))
		}
		Threshold(coeffs, int(keepRaw)%(n+1))
		b := NewSparseBlock(coeffs)
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			return false
		}
		b2, err := ReadSparseBlock(&buf)
		if err != nil {
			return false
		}
		dec := b2.Decode()
		for i := range coeffs {
			if dec[i] != coeffs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkThreshold1M(b *testing.B)   { benchThreshold1M[float64](b) }
func BenchmarkThreshold1M32(b *testing.B) { benchThreshold1M[float32](b) }

func benchThreshold1M[F num.Float](b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	orig := make([]F, 1<<20)
	for i := range orig {
		orig[i] = F(rng.NormFloat64())
	}
	work := make([]F, len(orig))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, orig)
		Threshold(work, len(work)/16)
	}
}

func TestDeflatedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	coeffs := make([]float64, 2000)
	for i := range coeffs {
		coeffs[i] = float64(float32(rng.NormFloat64()))
	}
	Threshold(coeffs, 100)
	b := NewSparseBlock(coeffs)

	var buf bytes.Buffer
	n, err := b.WriteDeflated(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Errorf("WriteDeflated reported %d bytes, wrote %d", n, buf.Len())
	}
	// Append a second block to verify exact frame consumption.
	b2src := make([]float64, 500)
	b2src[7] = 1.25
	b2 := NewSparseBlock(b2src)
	if _, err := b2.WriteDeflated(&buf); err != nil {
		t.Fatal(err)
	}

	got1, err := ReadDeflatedSparseBlock(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ReadDeflatedSparseBlock(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dec := got1.Decode()
	for i := range coeffs {
		if dec[i] != coeffs[i] {
			t.Fatalf("block 1 sample %d mismatch", i)
		}
	}
	if got2.Decode()[7] != 1.25 {
		t.Error("block 2 corrupted")
	}
}

func TestDeflateShrinksSparseBitmaps(t *testing.T) {
	// At high ratios the bitmap is mostly zero: DEFLATE should beat the
	// raw encoding comfortably.
	coeffs := make([]float64, 1<<16)
	coeffs[100] = 1
	coeffs[60000] = -2
	b := NewSparseBlock(coeffs)
	defl, err := b.DeflatedSizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if raw := b.EncodedSizeBytes(); defl >= raw/10 {
		t.Errorf("deflate %d bytes not well below raw %d for a sparse bitmap", defl, raw)
	}
}

func TestReadDeflatedRejectsGarbage(t *testing.T) {
	if _, err := ReadDeflatedSparseBlock(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("expected error for truncated frame header")
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], 1<<50)
	if _, err := ReadDeflatedSparseBlock(bytes.NewReader(hdr[:])); err == nil {
		t.Error("expected error for implausible size")
	}
	binary.LittleEndian.PutUint64(hdr[:], 4)
	bad := append(hdr[:], 0xde, 0xad, 0xbe, 0xef)
	if _, err := ReadDeflatedSparseBlock(bytes.NewReader(bad)); err == nil {
		t.Error("expected error for invalid deflate payload")
	}
}
