package compress

// Property tests pinning the parallel selection and coding paths to the
// serial reference implementations, bit for bit: ThresholdSlices against
// thresholdSerial (the original quickselect code, kept below),
// and EncodeSurvivorBlocks/DecodeInto against the obvious append-growth
// encoder. Each runs at both precisions. Run under -race by `make check`
// to also prove the chunked passes are data-race free.

import (
	"math"
	"math/rand"
	"testing"

	"stwave/internal/fbits"
	"stwave/internal/num"
)

// precisions drives the float64 and float32 paths through the same
// assertions against the float64 references. round maps test data to the
// values the precision holds (the nearest float32, widened back, for f32);
// the other functions run one stage at that precision on round(data) and
// return the result widened. Widening is exact, so an f32 run must match
// the reference on the widened copy bit for bit.
var precisions = []struct {
	name      string
	round     func([]float64) []float64
	threshold func(ref []float64, keep, workers int) ([]float64, int)
	encode    func(ref []float64, workers int) *SparseBlock
	decode    func(b *SparseBlock, workers int) ([]float64, error)
}{
	{"f64", func(x []float64) []float64 { return x }, thresholdAt[float64], encodeAt[float64], decodeAt[float64]},
	{"f32", func(x []float64) []float64 { return num.Widen(num.Narrow(x)) }, thresholdAt[float32], encodeAt[float32], decodeAt[float32]},
}

func convertTo[F num.Float](ref []float64) []F {
	out := make([]F, len(ref))
	num.Convert(out, ref)
	return out
}

func thresholdAt[F num.Float](ref []float64, keep, workers int) ([]float64, int) {
	got := convertTo[F](ref)
	kept := ThresholdSlices([][]F{got}, keep, workers)
	return num.Widen(got), kept
}

func encodeAt[F num.Float](ref []float64, workers int) *SparseBlock {
	return EncodeSurvivorBlocks(Nonzeros([][]F{convertTo[F](ref)}, workers), workers)[0]
}

// sparseBlock encodes one dense coefficient slice the way the window
// encoder does; zero-valued coefficients are discarded.
func sparseBlock(coeffs []float64) *SparseBlock { return encodeAt[float64](coeffs, 1) }

func decodeAt[F num.Float](b *SparseBlock, workers int) ([]float64, error) {
	out := make([]F, b.Total)
	err := DecodeInto(b, out, workers)
	return num.Widen(out), err
}

// refSparseBlock is the original append-growth encoder.
func refSparseBlock(coeffs []float64) *SparseBlock {
	n := len(coeffs)
	b := &SparseBlock{
		Total:  n,
		Bitmap: make([]byte, (n+7)/8),
	}
	for i, v := range coeffs {
		if !fbits.Zero(v) {
			b.Bitmap[i>>3] |= 1 << uint(i&7)
			b.Values = append(b.Values, float32(v))
		}
	}
	return b
}

// refDecode is the serial decoder DecodeInto is pinned against: it
// expands b into a dense slice of length Total, discarded coefficients
// zero.
func refDecode(b *SparseBlock) []float64 {
	out := make([]float64, b.Total)
	vi := 0
	for i := 0; i < b.Total; i++ {
		if b.Bitmap[i>>3]&(1<<uint(i&7)) != 0 {
			out[i] = float64(b.Values[vi])
			vi++
		}
	}
	return out
}

// tieHeavy returns a coefficient set dominated by a handful of repeated
// magnitudes, the adversarial case for deterministic tie admission.
func tieHeavy(rng *rand.Rand, n int) []float64 {
	vals := []float64{0, 1.5, -1.5, 2.25, -2.25, 1e-300, -1e-300}
	out := make([]float64, n)
	for i := range out {
		out[i] = vals[rng.Intn(len(vals))]
	}
	return out
}

func mixed(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = math.Copysign(1e-308, rng.NormFloat64()) // subnormal-adjacent
		default:
			out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
	}
	return out
}

func sliceBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: index %d: got %v, want %v (bit mismatch)", label, i, got[i], want[i])
		}
	}
}

// TestThresholdMatchesSerial pins the radix-select Threshold to the
// quickselect reference across sizes, keeps, distributions, worker counts
// and precisions: the float32 survivor mask must be the float64 mask of
// the widened data.
func TestThresholdMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gens := map[string]func(*rand.Rand, int) []float64{
		"mixed":    mixed,
		"tieheavy": tieHeavy,
		"constant": func(_ *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = 3.25
			}
			return out
		},
	}
	sizes := []int{1, 2, 7, 100, 1000, 70000} // 70000 spans three chunks
	for name, gen := range gens {
		for _, n := range sizes {
			data := gen(rng, n)
			for _, p := range precisions {
				ref := p.round(data)
				for _, keep := range []int{0, 1, n / 3, n - 1, n, n + 5} {
					if keep < 0 {
						continue
					}
					want := append([]float64(nil), ref...)
					wantKept := thresholdSerial(want, keep)
					for _, workers := range []int{1, 4} {
						got, gotKept := p.threshold(ref, keep, workers)
						if gotKept != wantKept {
							t.Fatalf("%s %s n=%d keep=%d workers=%d: kept %d, want %d", p.name, name, n, keep, workers, gotKept, wantKept)
						}
						sliceBitIdentical(t, p.name+" "+name, got, want)
					}
				}
			}
		}
	}
}

// TestThresholdSlicesJoint pins the multi-slice form against thresholding
// the materialized concatenation, the contract core's joint 4D budget
// relies on — including windows of 1, 10, 20, and 40 slices.
func TestThresholdSlicesJoint(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const per = 500
	for _, nslices := range []int{1, 10, 20, 40} {
		slices := make([][]float64, nslices)
		var all []float64
		for i := range slices {
			slices[i] = tieHeavy(rng, per)
			all = append(all, slices[i]...)
		}
		keep := nslices * per / 4
		wantKept := thresholdSerial(all, keep)
		gotKept := ThresholdSlices(slices, keep, 4)
		if gotKept != wantKept {
			t.Fatalf("%d slices: kept %d, want %d", nslices, gotKept, wantKept)
		}
		off := 0
		for i, s := range slices {
			sliceBitIdentical(t, "slice", s, all[off:off+len(s)])
			off += len(s)
			_ = i
		}
	}
}

// TestSparseBlockMatchesSerial pins the counted two-pass encoder and the
// chunked decoder to the append-growth reference across sizes that cover
// empty, sub-chunk, chunk-boundary, and multi-chunk blocks, at both
// precisions: a float32 slice encodes to the block of its widened copy and
// decodes to the stored values.
func TestSparseBlockMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	sizes := []int{0, 1, 9, sparseChunk - 1, sparseChunk, sparseChunk + 1, 3*sparseChunk + 17}
	for _, n := range sizes {
		data := tieHeavy(rng, n)
		for _, p := range precisions {
			ref := p.round(data)
			want := refSparseBlock(ref)
			for _, workers := range []int{1, 4} {
				got := p.encode(ref, workers)
				if got.Total != want.Total {
					t.Fatalf("%s n=%d: total %d != %d", p.name, n, got.Total, want.Total)
				}
				if len(got.Bitmap) != len(want.Bitmap) {
					t.Fatalf("%s n=%d: bitmap len %d != %d", p.name, n, len(got.Bitmap), len(want.Bitmap))
				}
				for i := range want.Bitmap {
					if got.Bitmap[i] != want.Bitmap[i] {
						t.Fatalf("%s n=%d workers=%d: bitmap byte %d: %02x != %02x", p.name, n, workers, i, got.Bitmap[i], want.Bitmap[i])
					}
				}
				if len(got.Values) != len(want.Values) {
					t.Fatalf("%s n=%d: values len %d != %d", p.name, n, len(got.Values), len(want.Values))
				}
				for i := range want.Values {
					if math.Float32bits(got.Values[i]) != math.Float32bits(want.Values[i]) {
						t.Fatalf("%s n=%d workers=%d: value %d: %v != %v", p.name, n, workers, i, got.Values[i], want.Values[i])
					}
				}

				out, err := p.decode(got, workers)
				if err != nil {
					t.Fatalf("%s n=%d: DecodeInto: %v", p.name, n, err)
				}
				sliceBitIdentical(t, p.name+" decode", out, refDecode(want))
			}
		}
	}
}

// thresholdSerial is the original quickselect implementation, retained
// verbatim as the reference the equivalence tests pin ThresholdSlices and
// SelectSurvivors against. It must not be changed independently of
// Threshold's documented semantics. NaN has no place in its float order,
// so NaN inputs are checked against thresholdByKey instead.
func thresholdSerial(coeffs []float64, keep int) int {
	n := len(coeffs)
	if keep >= n {
		return n
	}
	if keep <= 0 {
		for i := range coeffs {
			coeffs[i] = 0
		}
		return 0
	}
	mags := make([]float64, n)
	for i, v := range coeffs {
		mags[i] = math.Abs(v)
	}
	cut := selectKth(mags, keep-1) // 0-indexed: (keep-1)-th in descending order

	// First pass: keep everything strictly above the cut.
	kept := 0
	for _, v := range coeffs {
		if math.Abs(v) > cut {
			kept++
		}
	}
	// Second pass: admit ties (== cut) until the budget is exhausted, then
	// zero the rest.
	remaining := keep - kept
	for i, v := range coeffs {
		a := math.Abs(v)
		if a > cut {
			continue
		}
		if fbits.Eq(a, cut) && remaining > 0 {
			remaining--
			continue
		}
		coeffs[i] = 0
	}
	return keep
}

// selectKth returns the k-th largest element (0-indexed) of a, using
// iterative quickselect with median-of-three pivoting. a is permuted.
// Retained for thresholdSerial only.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for {
		if lo == hi {
			return a[lo]
		}
		p := partitionDesc(a, lo, hi)
		switch {
		case k == p:
			return a[p]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}

// partitionDesc partitions a[lo..hi] in descending order around a
// median-of-three pivot and returns the pivot's final index.
func partitionDesc(a []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-three: order a[lo] >= a[mid] >= a[hi] candidates.
	if a[mid] > a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi] > a[lo] {
		a[hi], a[lo] = a[lo], a[hi]
	}
	if a[hi] > a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
	}
	pivot := a[mid]
	a[mid], a[hi] = a[hi], a[mid]
	store := lo
	for i := lo; i < hi; i++ {
		if a[i] > pivot {
			a[i], a[store] = a[store], a[i]
			store++
		}
	}
	a[store], a[hi] = a[hi], a[store]
	return store
}
