package wavelet

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"stwave/internal/num"
)

// forwardBlock runs one blocked forward level on slab in place, the way
// the tile runner in internal/transform does: lift into scratch, copy
// back. n < 2 slabs pass through untouched.
func forwardBlock[F num.Float](k Kernel, slab []F, n, L int) {
	scr := make([]F, n*L)
	ForwardStepBlockTo(k, slab, scr, n, L)
	if n >= 2 {
		copy(slab, scr)
	}
}

// inverseBlock undoes forwardBlock in place.
func inverseBlock[F num.Float](k Kernel, slab []F, n, L int) {
	scr := make([]F, n*L)
	InverseStepBlockTo(k, slab, scr, n, L)
	if n >= 2 {
		copy(slab, scr)
	}
}

// sameBits reports whether a and b are the same float bit for bit, any
// NaN matching any NaN: the compiler may commute the operands of an
// addition, which picks which NaN payload propagates.
func sameBits[F num.Float](a, b F) bool {
	if a != a && b != b {
		return true
	}
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// TestBlockBitIdentical pins the blocked kernels to the line kernels at
// both precisions and with each row body this binary has: for every
// kernel, signal length (odd and even, degenerate 1 and 2), and lane
// count, one blocked forward level and then one blocked inverse level on
// a slab of L random signals must produce bit for bit the result of
// ForwardStep/InverseStep on each signal alone. The lane counts cover
// the Go tail alone, one or two AVX2 groups at either precision, and a
// group plus a tail.
func TestBlockBitIdentical(t *testing.T) {
	t.Run("float64", eachRowBody(testBlockBitIdentical[float64]))
	t.Run("float32", eachRowBody(testBlockBitIdentical[float32]))
}

func testBlockBitIdentical[F num.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range []Kernel{CDF97, CDF53, Haar, Daub4} {
		for n := 1; n <= 41; n++ {
			for _, L := range []int{1, 2, 3, 5, 8, 16, 17, 32, 40} {
				// L random signals, both as line copies and a
				// sample-major slab.
				signals := make([][]F, L)
				slab := make([]F, n*L)
				for j := range signals {
					signals[j] = make([]F, n)
					for i := range signals[j] {
						v := F(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
						signals[j][i] = v
						slab[i*L+j] = v
					}
				}
				scratch := make([]F, n)
				for _, s := range signals {
					ForwardStep(k, s, scratch)
				}
				forwardBlock(k, slab, n, L)
				compareSlab(t, k, n, L, "forward", signals, slab)

				for _, s := range signals {
					InverseStep(k, s, scratch)
				}
				inverseBlock(k, slab, n, L)
				compareSlab(t, k, n, L, "inverse", signals, slab)
			}
		}
	}
}

func compareSlab[F num.Float](t *testing.T, k Kernel, n, L int, stage string, signals [][]F, slab []F) {
	t.Helper()
	for j := 0; j < L; j++ {
		for i := 0; i < n; i++ {
			want := signals[j][i]
			got := slab[i*L+j]
			if !sameBits(want, got) {
				t.Fatalf("%v n=%d L=%d %s: lane %d sample %d: blocked %v (bits %x) != line %v (bits %x)",
					k, n, L, stage, j, i, got, math.Float64bits(float64(got)), want, math.Float64bits(float64(want)))
			}
		}
	}
}

// TestBlockMultiLevel runs a multi-level pyramid through the blocked
// kernel the way the temporal transform does (shrinking prefixes of the
// slab) and checks bit-identity against the line pyramid.
func TestBlockMultiLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []Kernel{CDF97, CDF53, Haar} {
		for _, n := range []int{10, 20, 40} {
			const L = 6
			signals := make([][]float64, L)
			slab := make([]float64, n*L)
			for j := 0; j < L; j++ {
				signals[j] = make([]float64, n)
				for i := 0; i < n; i++ {
					v := rng.NormFloat64()
					signals[j][i] = v
					slab[i*L+j] = v
				}
			}
			lens := BandLengths(n, MaxLevels(k, n))

			scratch := make([]float64, n)
			for _, ln := range lens {
				for j := 0; j < L; j++ {
					ForwardStep(k, signals[j][:ln], scratch)
				}
				forwardBlock(k, slab[:ln*L], ln, L)
			}
			compareSlab(t, k, n, L, "pyramid-forward", signals, slab)

			for i := len(lens) - 1; i >= 0; i-- {
				ln := lens[i]
				for j := 0; j < L; j++ {
					InverseStep(k, signals[j][:ln], scratch)
				}
				inverseBlock(k, slab[:ln*L], ln, L)
			}
			compareSlab(t, k, n, L, "pyramid-inverse", signals, slab)
		}
	}
}

// TestBlockDegenerate checks n < 2 slabs leave both src and dst
// untouched, matching the scalar step's contract.
func TestBlockDegenerate(t *testing.T) {
	src := []float64{1.5, -2.5, 3.5}
	dst := []float64{7, 8, 9}
	ForwardStepBlockTo(CDF97, src, dst, 1, 3)
	InverseStepBlockTo(CDF97, src, dst, 1, 3)
	for i, want := range []float64{1.5, -2.5, 3.5} {
		if src[i] != want || dst[i] != float64(7+i) {
			t.Fatalf("degenerate slab modified: src %v dst %v", src, dst)
		}
	}
}

// FuzzBlockMatchesLine drives the float64 blocked kernels with raw
// sample bits — NaN, ±Inf, subnormals and near-MaxFloat64 values
// included — and requires every lane, forward and inverse, to match the
// line kernel bit for bit. The first seed (n = 3, evens 0, odds
// 0.6*MaxFloat64) is a boundary where a reflected neighbour's c*(m+m)
// overflows to -Inf while (2c)*m would stay finite.
func FuzzBlockMatchesLine(f *testing.F) {
	f.Add(uint8(CDF97), uint8(3), uint8(1), bits64(0, 0.6*math.MaxFloat64))
	f.Add(uint8(CDF53), uint8(17), uint8(5), bits64(math.Inf(1), math.NaN(), math.Inf(-1), 5e-324, -math.MaxFloat64))
	f.Add(uint8(Haar), uint8(9), uint8(17), bits64(math.Copysign(0, -1), 1e-310, 3))
	f.Fuzz(func(t *testing.T, k, n, L uint8, data []byte) {
		fuzzBlockMatchesLine(t, k, n, L, data, 8, func(b []byte) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(b))
		})
	})
}

// FuzzBlockMatchesLine32 is FuzzBlockMatchesLine for the float32
// kernels, seeded with the same cases at float32's limits.
func FuzzBlockMatchesLine32(f *testing.F) {
	f.Add(uint8(CDF97), uint8(3), uint8(1), bits32(0, 0.6*math.MaxFloat32))
	f.Add(uint8(CDF53), uint8(17), uint8(5), bits32(float32(math.Inf(1)), float32(math.NaN()), float32(math.Inf(-1)), 1e-45, -math.MaxFloat32))
	f.Add(uint8(Haar), uint8(9), uint8(17), bits32(float32(math.Copysign(0, -1)), 1e-40, 3))
	f.Fuzz(func(t *testing.T, k, n, L uint8, data []byte) {
		fuzzBlockMatchesLine(t, k, n, L, data, 4, func(b []byte) float32 {
			return math.Float32frombits(binary.LittleEndian.Uint32(b))
		})
	})
}

func bits64(vs ...float64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

func bits32(vs ...float32) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// fuzzBlockMatchesLine decodes n ≤ 64 samples of L ≤ 40 lanes from data
// (size bytes per sample, cycled; empty data means zeros), then checks
// one blocked forward level and, independently, one blocked inverse
// level on the same samples against the line kernels, with each row body
// this binary has. At float32, 40 lanes are two AVX2 groups and a tail.
func fuzzBlockMatchesLine[F num.Float](t *testing.T, kb, nb, lb uint8, data []byte, size int, decode func([]byte) F) {
	k := Kernel(int(kb) % 4)
	n, L := int(nb)%65, int(lb)%41
	if n < 1 || L < 1 {
		return
	}
	data = data[:len(data)/size*size]
	signals := make([][]F, L)
	slab := make([]F, n*L)
	for j := range signals {
		signals[j] = make([]F, n)
		for i := range signals[j] {
			var v F
			if len(data) > 0 {
				o := (i*L + j) * size % len(data)
				v = decode(data[o : o+size])
			}
			signals[j][i] = v
			slab[i*L+j] = v
		}
	}
	defer func() { useAVX2 = num.HaveAVX2 }()
	for _, stage := range []string{"forward", "inverse"} {
		lines := make([][]F, L)
		scratch := make([]F, n)
		for j, s := range signals {
			lines[j] = append([]F(nil), s...)
			if stage == "inverse" {
				InverseStep(k, lines[j], scratch)
			} else {
				ForwardStep(k, lines[j], scratch)
			}
		}
		for _, on := range rowBodies() {
			useAVX2 = on
			block := append([]F(nil), slab...)
			if stage == "inverse" {
				inverseBlock(k, block, n, L)
			} else {
				forwardBlock(k, block, n, L)
			}
			compareSlab(t, k, n, L, stage+"/"+rowBodyName(on), lines, block)
		}
	}
}
