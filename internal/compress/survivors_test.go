package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"stwave/internal/fbits"
	"stwave/internal/num"
)

// thresholdByKey is an independent sort-based reference for
// SelectSurvivors that, unlike thresholdSerial, gives NaN a place: rank
// every coefficient by (magnitude key descending, index ascending), keep
// the first keep, restore index order and drop exact zeros.
func thresholdByKey[F num.Float](data []F, keep int) Survivors {
	keys := make([]uint64, len(data))
	order := make([]int, len(data))
	for i, v := range data {
		keys[i], order[i] = magKey(v), i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] > keys[order[b]] })
	kept := order[:min(max(keep, 0), len(order))]
	sort.Ints(kept)
	s := Survivors{Total: len(data)}
	for _, i := range kept {
		if !fbits.Zero(data[i]) {
			s.Idx = append(s.Idx, i)
			s.Val = append(s.Val, float64(data[i]))
		}
	}
	return s
}

// nonzerosOf returns the survivors a dense thresholded slice encodes.
func nonzerosOf(data []float64) Survivors {
	s := Survivors{Total: len(data)}
	for i, v := range data {
		if !fbits.Zero(v) {
			s.Idx = append(s.Idx, i)
			s.Val = append(s.Val, v)
		}
	}
	return s
}

func survivorsEqual(t *testing.T, label string, got, want Survivors) {
	t.Helper()
	if got.Total != want.Total || len(got.Idx) != len(want.Idx) || len(got.Val) != len(want.Idx) {
		t.Fatalf("%s: total %d with %d/%d survivors, want total %d with %d", label,
			got.Total, len(got.Idx), len(got.Val), want.Total, len(want.Idx))
	}
	for j := range want.Idx {
		if got.Idx[j] != want.Idx[j] || math.Float64bits(got.Val[j]) != math.Float64bits(want.Val[j]) {
			t.Fatalf("%s: survivor %d is (%d, %v), want (%d, %v)", label, j, got.Idx[j], got.Val[j], want.Idx[j], want.Val[j])
		}
	}
}

// splitAt cuts data into slices of the given lengths (the last takes the
// rest), sharing data's backing array.
func splitAt[F num.Float](data []F, lens []int) [][]F {
	var out [][]F
	for _, n := range lens {
		n = min(n, len(data))
		out = append(out, data[:n:n])
		data = data[n:]
	}
	return append(out, data)
}

// selectRefs holds the references for one (data, keep) pair over the
// concatenated window: key-order survivors, and for NaN-free data the
// nonzeros of thresholdSerial. Its two-way quickselect goes quadratic on
// tie-heavy input, so large tie-heavy windows skip that reference.
type selectRefs struct {
	key    Survivors
	serial *Survivors
}

func refsFor[F num.Float](data []F, keep int, withSerial bool) selectRefs {
	r := selectRefs{key: thresholdByKey(data, keep)}
	if !withSerial {
		return r
	}
	for _, v := range data {
		if v != v {
			return r
		}
	}
	dense := make([]float64, len(data))
	num.Convert(dense, data)
	thresholdSerial(dense, keep)
	ser := nonzerosOf(dense)
	r.serial = &ser
	return r
}

// sliceOf restricts window-wide survivors to the slice [off, off+n).
func sliceOf(all Survivors, off, n int) Survivors {
	lo := sort.SearchInts(all.Idx, off)
	hi := sort.SearchInts(all.Idx, off+n)
	s := Survivors{Total: n, Val: all.Val[lo:hi]}
	for _, i := range all.Idx[lo:hi] {
		s.Idx = append(s.Idx, i-off)
	}
	return s
}

// checkSelect runs SelectSurvivors over data split into slices and pins
// it to the references, checking the input stays untouched.
func checkSelect[F num.Float](t *testing.T, label string, data []F, lens []int, keep, workers int, refs selectRefs) {
	t.Helper()
	orig := slices.Clone(data)
	parts := splitAt(data, lens)
	got := SelectSurvivors(parts, keep, workers)
	if err := CheckSurvivors(got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(parts) {
		t.Fatalf("%s: %d survivor lists for %d slices", label, len(got), len(parts))
	}
	off := 0
	for si, p := range parts {
		survivorsEqual(t, label+" vs key order", got[si], sliceOf(refs.key, off, len(p)))
		if refs.serial != nil {
			survivorsEqual(t, label+" vs thresholdSerial", got[si], sliceOf(*refs.serial, off, len(p)))
		}
		off += len(p)
	}
	for i := range orig {
		if math.Float64bits(float64(orig[i])) != math.Float64bits(float64(data[i])) {
			t.Fatalf("%s: SelectSurvivors wrote input index %d", label, i)
		}
	}
}

// signedZerosNaN mixes ±0, NaN, ±Inf and repeated magnitudes.
func signedZerosNaN(rng *rand.Rand, n int) []float64 {
	vals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 2, -2, 1e-310}
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(3) == 0 {
			out[i] = vals[rng.Intn(len(vals))]
		} else {
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

// TestSelectSurvivorsMatchesSerial is the property test of the survivor
// hand-off: every keep in {0, 1, n/3, ties straddling a chunk boundary,
// n-1, n, >n}, workers 1..8, both precisions, with single- and
// multi-slice splits that do not align with the chunk grid.
func TestSelectSurvivorsMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	gens := map[string]func(*rand.Rand, int) []float64{
		"mixed":    mixed,
		"tieheavy": tieHeavy,
		"zerosnan": signedZerosNaN,
		"constant": func(_ *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = math.Copysign(3.25, float64(i%2)-0.5)
			}
			return out
		},
	}
	for name, gen := range gens {
		for _, n := range []int{1, 7, 1000, 2*thresholdChunk + 3} {
			data := gen(rng, n)
			keeps := []int{0, 1, n / 3, n - 1, n, n + 5}
			if n > thresholdChunk {
				keeps = append(keeps, thresholdChunk+10) // constant data: admitted ties cross chunk 0 → 1
			}
			splits := [][]int{nil, {n / 3, 0, 5}}
			d32 := num.Narrow(data)
			for _, keep := range keeps {
				serial := n <= 1000 || name == "mixed"
				r64, r32 := refsFor(data, keep, serial), refsFor(d32, keep, serial)
				for _, lens := range splits {
					for workers := 1; workers <= 8; workers++ {
						checkSelect(t, name+"/f64", data, lens, keep, workers, r64)
						checkSelect(t, name+"/f32", d32, lens, keep, workers, r32)
					}
				}
			}
		}
	}
}

// TestNonzerosMatchesDense pins the dense collector to a plain scan.
func TestNonzerosMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	data := signedZerosNaN(rng, 2*thresholdChunk+9)
	for _, workers := range []int{1, 3} {
		got := Nonzeros(splitAt(data, []int{thresholdChunk + 1}), workers)
		survivorsEqual(t, "slice 0", got[0], nonzerosOf(data[:thresholdChunk+1]))
		survivorsEqual(t, "slice 1", got[1], nonzerosOf(data[thresholdChunk+1:]))
	}
}

func TestCheckSurvivorsRejects(t *testing.T) {
	bad := []Survivors{
		{Total: 4, Idx: []int{1, 1}, Val: []float64{1, 2}},
		{Total: 4, Idx: []int{4}, Val: []float64{1}},
		{Total: 4, Idx: []int{2}, Val: []float64{0}},
		{Total: 4, Idx: []int{2}, Val: nil},
		{Total: -1},
	}
	for i, s := range bad {
		if CheckSurvivors([]Survivors{s}) == nil {
			t.Errorf("case %d: %+v accepted", i, s)
		}
	}
	if err := CheckSurvivors([]Survivors{{Total: 4, Idx: []int{0, 3}, Val: []float64{1, math.NaN()}}}); err != nil {
		t.Errorf("valid list rejected: %v", err)
	}
}

// FuzzSelectSurvivors feeds raw IEEE-754 bit patterns (so ±0, NaN
// payloads, infinities and subnormals all occur), tiled to lengths that
// cross the chunk grid, through SelectSurvivors at both precisions.
func FuzzSelectSurvivors(f *testing.F) {
	seed := make([]byte, 0, 64)
	for _, v := range []float64{1.5, -1.5, 0, math.Copysign(0, -1), math.NaN(), 7, -7, 1e-310} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, 3, uint8(2), uint16(0), uint16(3), false)
	f.Add(seed, 5000, uint8(4), uint16(9000), uint16(33000), true)
	f.Add([]byte{}, 0, uint8(1), uint16(0), uint16(0), false)

	f.Fuzz(func(t *testing.T, raw []byte, keep int, workers uint8, tile, split uint16, f32 bool) {
		var vals []float64
		for len(raw) >= 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		data := vals
		if len(vals) > 0 {
			// Tiling repeats every magnitude, so cut ties cross chunks.
			for i := 0; len(data) < len(vals)+int(tile%20000)*4; i++ {
				data = append(data, vals[i%len(vals)])
			}
		}
		keep %= len(data) + 3
		w := int(workers%8) + 1
		lens := []int{int(split)}
		serial := len(data) <= 4096
		if f32 {
			d32 := num.Narrow(data)
			checkSelect(t, "f32", d32, lens, keep, w, refsFor(d32, keep, serial))
		} else {
			checkSelect(t, "f64", data, lens, keep, w, refsFor(data, keep, serial))
		}
	})
}
