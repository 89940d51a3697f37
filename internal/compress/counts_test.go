package compress

import (
	"math"
	"testing"

	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/sim/synth"
	"stwave/internal/transform"
	"stwave/internal/wavelet"
)

// Counts of the selection before the bucket map had float32 resolution
// (the top 11 bits of a float64 key: two binades per bucket) and before
// pass 2 skipped chunks, on the window of TestSelectCounts.
const (
	parentCutBucketKeys = 136500
	parentCandidates    = 249556
)

// TestSelectCounts pins the selection's work on a 64³×20 synth window,
// transformed by the default 4D spec and selected at ratio 32: the cut
// bucket holds at most an eighth of the keys it held with two binades per
// bucket, the candidates shrink with it, and pass 2 reads at most half of
// the chunks. The counts are exact, so one run decides.
func TestSelectCounts(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Modes = 8
	field, err := synth.NewField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := grid.Dims{Nx: 64, Ny: 64, Nz: 64}
	w := grid.NewWindow(d)
	for i := 0; i < 20; i++ {
		f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
		if err := field.SampleScalarInto(f, float64(i)*0.25); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(f, float64(i)*0.25); err != nil {
			t.Fatal(err)
		}
	}
	spec := transform.Spec{SpatialKernel: wavelet.CDF97, SpatialLevels: -1, TemporalKernel: wavelet.CDF97, TemporalLevels: -1}
	if err := transform.Forward4D(w, spec); err != nil {
		t.Fatal(err)
	}
	datas := make([][]float64, w.Len())
	for i, s := range w.Slices {
		datas[i] = s.Data
	}
	keep, err := KeepCount(w.TotalSamples(), 32)
	if err != nil {
		t.Fatal(err)
	}
	_, _, st := selectSurvivors(datas, keep, 2, nil, nil)
	nch := w.TotalSamples() / thresholdChunk
	t.Logf("cut-bucket keys %d (was %d), candidates %d (was %d), chunks read %d of %d",
		st.cutBucketKeys, parentCutBucketKeys, st.candidates, parentCandidates, st.chunksRead, nch)
	if st.cutBucketKeys > parentCutBucketKeys/8 {
		t.Errorf("cut bucket holds %d keys, want <= %d", st.cutBucketKeys, parentCutBucketKeys/8)
	}
	if st.candidates >= parentCandidates || st.candidates < keep {
		t.Errorf("%d candidates, want in [%d, %d)", st.candidates, keep, parentCandidates)
	}
	if st.chunksRead > nch/2 {
		t.Errorf("pass 2 read %d of %d chunks, want <= %d", st.chunksRead, nch, nch/2)
	}
}

// TestBucketMapMonotone checks the key → bucket map over extreme values
// at both precisions: ±0, subnormals, magnitudes far beyond the float64
// clamp, ±Inf and NaN payloads. Sorted by key, buckets never decrease,
// and bucketLow(b) is the first key of bucket b.
func TestBucketMapMonotone(t *testing.T) {
	t.Run("f64", func(t *testing.T) { checkBucketMap[float64](t, extremeValues) })
	t.Run("f32", func(t *testing.T) {
		v32 := make([]float32, 0, len(extremeValues)+2)
		for _, v := range extremeValues {
			v32 = append(v32, float32(v))
		}
		v32 = append(v32, math.Float32frombits(0x7f800001), math.Float32frombits(0xffc00bad))
		checkBucketMap[float32](t, v32)
	})
}

// extremeValues spans every region of the key space: ±0, subnormals at
// both precisions, the edges of the float64 map's [2^-128, 2^128) range
// and magnitudes far beyond it, ±Inf and NaN payloads.
var extremeValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, math.SmallestNonzeroFloat32,
	math.Ldexp(1, -1000), math.Ldexp(1, -300), math.Ldexp(1, -129), math.Ldexp(1, -128),
	math.Ldexp(1.9, -128), math.Ldexp(1, -127), 1e-30, 1e-8, 0.1, 1, 1.125, 1.25, 2, 1e8,
	math.MaxFloat32, math.Ldexp(1, 127), math.Ldexp(1.9, 127), math.Ldexp(1, 128),
	math.Ldexp(1, 300), -math.Ldexp(1, 300), math.MaxFloat64, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000bad),
}

func checkBucketMap[F num.Float](t *testing.T, vals []F) {
	t.Helper()
	keys := make([]uint64, len(vals))
	for i, v := range vals {
		keys[i] = magKey(v)
	}
	for i, a := range keys {
		for _, b := range keys[i+1:] {
			lo, hi := min(a, b), max(a, b)
			if bucketOf[F](lo) > bucketOf[F](hi) {
				t.Fatalf("key %#x maps to bucket %d above key %#x's %d", lo, bucketOf[F](lo), hi, bucketOf[F](hi))
			}
		}
		bk := bucketOf[F](a)
		if bk >= histSize {
			t.Fatalf("key %#x maps to bucket %d outside the histogram", a, bk)
		}
		if a < bucketLow[F](bk) || (bk+1 < histSize && a >= bucketLow[F](bk+1)) {
			t.Fatalf("key %#x in bucket %d outside [%#x, %#x)", a, bk, bucketLow[F](bk), bucketLow[F](bk+1))
		}
	}
	for b := uint(1); b < histSize; b++ {
		if lo := bucketLow[F](b); bucketOf[F](lo) != b || bucketOf[F](lo-1) != b-1 {
			t.Fatalf("bucketLow(%d) = %#x sits in bucket %d, the key below in %d", b, lo, bucketOf[F](lo), bucketOf[F](lo-1))
		}
	}
}
