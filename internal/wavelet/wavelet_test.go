package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stwave/internal/num"
)

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randSignal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 10
	}
	return x
}

func symmetricKernels() []Kernel { return []Kernel{CDF97, CDF53, Haar} }
func allKernels() []Kernel       { return []Kernel{CDF97, CDF53, Haar, Daub4} }

func TestKernelString(t *testing.T) {
	cases := map[Kernel]string{
		CDF97:      "CDF 9/7",
		CDF53:      "CDF 5/3",
		Haar:       "Haar",
		Daub4:      "Daub4",
		Kernel(99): "Kernel(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kernel(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestKernelFilterSize(t *testing.T) {
	cases := map[Kernel]int{CDF97: 9, CDF53: 5, Haar: 2, Daub4: 4, Kernel(99): 0}
	for k, want := range cases {
		if got := k.FilterSize(); got != want {
			t.Errorf("%v.FilterSize() = %d, want %d", k, got, want)
		}
	}
}

func TestParseKernel(t *testing.T) {
	good := map[string]Kernel{
		"cdf97": CDF97, "CDF 9/7": CDF97, "cdf9/7": CDF97, "CDF-9-7": CDF97,
		"cdf53": CDF53, "CDF 5/3": CDF53,
		"haar": Haar, "Haar": Haar,
		"daub4": Daub4, "db2": Daub4,
	}
	for s, want := range good {
		got, err := ParseKernel(s)
		if err != nil {
			t.Errorf("ParseKernel(%q): unexpected error %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParseKernel(%q) = %v, want %v", s, got, want)
		}
	}
	for _, s := range []string{"", "cdf", "bior22", "cdf 9/11"} {
		if _, err := ParseKernel(s); err == nil {
			t.Errorf("ParseKernel(%q): expected error", s)
		}
	}
}

func TestReflect(t *testing.T) {
	cases := []struct{ i, n, want int }{
		{-1, 8, 1}, {-2, 8, 2}, {8, 8, 6}, {9, 8, 5},
		{0, 8, 0}, {7, 8, 7}, {-1, 2, 1}, {2, 2, 0},
		{-3, 3, 1}, {5, 3, 1},
	}
	for _, c := range cases {
		if got := reflect(c.i, c.n); got != c.want {
			t.Errorf("reflect(%d, %d) = %d, want %d", c.i, c.n, got, c.want)
		}
	}
}

func TestReflectPreservesParityAtBoundary(t *testing.T) {
	for n := 2; n <= 9; n++ {
		if got := reflect(-1, n); got%2 != 1 {
			t.Errorf("reflect(-1,%d)=%d not odd-parity", n, got)
		}
		if got := reflect(n, n); got%2 != n%2 {
			t.Errorf("reflect(%d,%d)=%d wrong parity", n, n, got)
		}
	}
}

// Perfect reconstruction for a single level, every kernel, many lengths.
func TestPerfectReconstructionSingleLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range allKernels() {
		for n := 1; n <= 64; n++ {
			if k == Daub4 && n%2 != 0 {
				continue
			}
			orig := randSignal(rng, n)
			data := append([]float64(nil), orig...)
			lvl := 1
			if MaxLevels(k, n) < 1 {
				lvl = 0
			}
			if err := Transform1D(k, data, lvl, nil); err != nil {
				t.Fatalf("%v n=%d: forward: %v", k, n, err)
			}
			if err := Inverse1D(k, data, lvl, nil); err != nil {
				t.Fatalf("%v n=%d: inverse: %v", k, n, err)
			}
			if d := maxAbsDiff(orig, data); d > 1e-9 {
				t.Errorf("%v n=%d: reconstruction error %.3g", k, n, d)
			}
		}
	}
}

// Perfect reconstruction at maximum level count for odd and even lengths.
func TestPerfectReconstructionMaxLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range symmetricKernels() {
		for _, n := range []int{10, 18, 20, 31, 40, 63, 64, 100, 128, 129} {
			levels := MaxLevels(k, n)
			orig := randSignal(rng, n)
			data := append([]float64(nil), orig...)
			if err := Transform1D(k, data, levels, nil); err != nil {
				t.Fatalf("%v n=%d levels=%d: %v", k, n, levels, err)
			}
			if err := Inverse1D(k, data, levels, nil); err != nil {
				t.Fatalf("%v n=%d levels=%d inverse: %v", k, n, levels, err)
			}
			if d := maxAbsDiff(orig, data); d > 1e-8 {
				t.Errorf("%v n=%d levels=%d: reconstruction error %.3g", k, n, levels, d)
			}
		}
	}
}

// A constant signal must produce zero detail coefficients (one vanishing
// moment) and approximation coefficients scaled by sqrt(2) per level.
func TestConstantSignalCompacts(t *testing.T) {
	for _, k := range symmetricKernels() {
		n := 64
		data := make([]float64, n)
		for i := range data {
			data[i] = 3.5
		}
		if err := Transform1D(k, data, 1, nil); err != nil {
			t.Fatal(err)
		}
		na := approxLen(n)
		for i := na; i < n; i++ {
			if math.Abs(data[i]) > 1e-10 {
				t.Errorf("%v: detail[%d] = %g, want 0", k, i-na, data[i])
			}
		}
		want := 3.5 * math.Sqrt2
		for i := 2; i < na-2; i++ { // skip boundary-affected samples
			if math.Abs(data[i]-want) > 1e-9 {
				t.Errorf("%v: approx[%d] = %g, want %g (DC gain sqrt2)", k, i, data[i], want)
			}
		}
	}
}

// CDF kernels annihilate linear ramps in the detail band (two vanishing
// moments for the analysis highpass of both 5/3 and 9/7) away from
// boundaries.
func TestLinearRampDetailVanishes(t *testing.T) {
	for _, k := range []Kernel{CDF97, CDF53} {
		n := 64
		data := make([]float64, n)
		for i := range data {
			data[i] = 2.0*float64(i) - 7.0
		}
		if err := Transform1D(k, data, 1, nil); err != nil {
			t.Fatal(err)
		}
		na := approxLen(n)
		for i := na + 4; i < n-4; i++ {
			if math.Abs(data[i]) > 1e-8 {
				t.Errorf("%v: interior detail[%d] = %g, want ~0 on a ramp", k, i-na, data[i])
			}
		}
	}
}

// Orthonormal-like normalization: energy is approximately preserved for a
// random smooth signal, and exactly for Haar/Daub4 (orthogonal kernels).
func TestEnergyPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	energy := func(x []float64) float64 {
		var e float64
		for _, v := range x {
			e += v * v
		}
		return e
	}
	for _, k := range allKernels() {
		n := 256
		orig := randSignal(rng, n)
		data := append([]float64(nil), orig...)
		if err := Transform1D(k, data, 3, nil); err != nil {
			t.Fatal(err)
		}
		e0, e1 := energy(orig), energy(data)
		rel := math.Abs(e1-e0) / e0
		tol := 0.25 // biorthogonal kernels are only near-orthogonal
		if k == Haar || k == Daub4 {
			tol = 1e-10
		}
		if rel > tol {
			t.Errorf("%v: energy ratio deviates by %.3g (e0=%g e1=%g)", k, rel, e0, e1)
		}
	}
}

func TestMaxLevelsMatchesPaperTable(t *testing.T) {
	// Section V-A1: windows {10,20,40}: CDF 9/7 -> {1,2,3}, CDF 5/3 -> {2,3,4}.
	cases := []struct {
		k       Kernel
		n, want int
	}{
		{CDF97, 10, 1}, {CDF97, 20, 2}, {CDF97, 40, 3},
		{CDF53, 10, 2}, {CDF53, 20, 3}, {CDF53, 40, 4},
		{CDF97, 512, 6}, {CDF97, 8, 0}, {CDF53, 4, 0},
		{Haar, 2, 1}, {Haar, 16, 4},
		{Daub4, 16, 3}, {Daub4, 15, 0},
	}
	for _, c := range cases {
		if got := MaxLevels(c.k, c.n); got != c.want {
			t.Errorf("MaxLevels(%v, %d) = %d, want %d", c.k, c.n, got, c.want)
		}
	}
}

func TestTransformRejectsTooManyLevels(t *testing.T) {
	data := make([]float64, 10)
	if err := Transform1D(CDF97, data, 2, nil); err == nil {
		t.Error("expected error: 2 levels on length 10 with CDF 9/7")
	}
	if err := Transform1D(CDF97, data, -1, nil); err == nil {
		t.Error("expected error for negative levels")
	}
	if err := Transform1D(Kernel(42), data, 1, nil); err == nil {
		t.Error("expected error for invalid kernel")
	}
}

func TestZeroLevelsIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	orig := randSignal(rng, 33)
	data := append([]float64(nil), orig...)
	if err := Transform1D(CDF97, data, 0, nil); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(orig, data); d != 0 {
		t.Errorf("0-level transform modified data (maxdiff %g)", d)
	}
}

func TestTinySignals(t *testing.T) {
	for _, k := range symmetricKernels() {
		for _, n := range []int{0, 1} {
			data := make([]float64, n)
			if n == 1 {
				data[0] = 42
			}
			if err := Transform1D(k, data, 0, nil); err != nil {
				t.Errorf("%v n=%d: %v", k, n, err)
			}
			if n == 1 && data[0] != 42 {
				t.Errorf("%v: single sample changed to %g", k, data[0])
			}
		}
	}
}

func TestBandLengths(t *testing.T) {
	lens := BandLengths(20, 3)
	want := []int{20, 10, 5}
	if len(lens) != len(want) {
		t.Fatalf("BandLengths(20,3) = %v, want %v", lens, want)
	}
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("BandLengths(20,3) = %v, want %v", lens, want)
		}
	}
}

func TestApproxLenAfter(t *testing.T) {
	cases := []struct{ n, levels, want int }{
		{20, 0, 20}, {20, 1, 10}, {20, 2, 5}, {21, 1, 11}, {21, 2, 6},
		{1, 5, 1},
	}
	for _, c := range cases {
		if got := ApproxLenAfter(c.n, c.levels); got != c.want {
			t.Errorf("ApproxLenAfter(%d,%d) = %d, want %d", c.n, c.levels, got, c.want)
		}
	}
}

// Multi-level transform must equal manually iterating single levels on the
// approximation prefix.
func TestMultiLevelEqualsIterated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range symmetricKernels() {
		n := 40
		orig := randSignal(rng, n)

		multi := append([]float64(nil), orig...)
		if err := Transform1D(k, multi, 2, nil); err != nil {
			t.Fatal(err)
		}

		iter := append([]float64(nil), orig...)
		if err := Transform1D(k, iter, 1, nil); err != nil {
			t.Fatal(err)
		}
		if err := Transform1D(k, iter[:approxLen(n)], 1, nil); err != nil {
			t.Fatal(err)
		}

		if d := maxAbsDiff(multi, iter); d > 1e-12 {
			t.Errorf("%v: multi-level differs from iterated by %g", k, d)
		}
	}
}

// Compression sanity: on a smooth signal, CDF 9/7 concentrates energy so the
// largest 25%% of coefficients reconstruct with far lower error than keeping
// 25%% of raw samples would.
func TestCompressionCompactsSmoothSignal(t *testing.T) {
	n := 256
	orig := make([]float64, n)
	for i := range orig {
		x := float64(i) / float64(n)
		orig[i] = math.Sin(2*math.Pi*3*x) + 0.5*math.Cos(2*math.Pi*7*x)
	}
	data := append([]float64(nil), orig...)
	levels := MaxLevels(CDF97, n)
	if err := Transform1D(CDF97, data, levels, nil); err != nil {
		t.Fatal(err)
	}
	// Zero all but the 64 largest-magnitude coefficients.
	type iv struct {
		i int
		v float64
	}
	idx := make([]iv, n)
	for i, v := range data {
		idx[i] = iv{i, math.Abs(v)}
	}
	for i := 0; i < len(idx); i++ { // selection of top-64 by partial sort
		maxJ := i
		for j := i + 1; j < len(idx); j++ {
			if idx[j].v > idx[maxJ].v {
				maxJ = j
			}
		}
		idx[i], idx[maxJ] = idx[maxJ], idx[i]
		if i >= 63 {
			break
		}
	}
	kept := map[int]bool{}
	for i := 0; i < 64; i++ {
		kept[idx[i].i] = true
	}
	for i := range data {
		if !kept[i] {
			data[i] = 0
		}
	}
	if err := Inverse1D(CDF97, data, levels, nil); err != nil {
		t.Fatal(err)
	}
	var rmse float64
	for i := range orig {
		d := orig[i] - data[i]
		rmse += d * d
	}
	rmse = math.Sqrt(rmse / float64(n))
	if rmse > 0.01 {
		t.Errorf("4:1 wavelet compression of smooth signal: RMSE %.4g, want < 0.01", rmse)
	}
}

func BenchmarkTransform1D_CDF97_1024(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	data := randSignal(rng, 1024)
	scratch := make([]float64, 1024)
	levels := MaxLevels(CDF97, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Transform1D(CDF97, data, levels, scratch); err != nil {
			b.Fatal(err)
		}
		if err := Inverse1D(CDF97, data, levels, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// Transform1D applies a multi-level forward DWT in place to data using the
// standard pyramid: each level transforms the approximation band left by the
// previous level. levels may be 0 (identity). scratch must have
// len(scratch) >= len(data); pass nil to allocate internally.
//
// The coefficient layout after L levels over a signal of length n is the
// usual Mallat ordering: [A_L | D_L | D_{L-1} | ... | D_1] where
// len(A_L)=ceil^L(n/2) and each detail band follows its approximation.
func Transform1D[F num.Float](k Kernel, data []F, levels int, scratch []F) error {
	if err := checkLevels(k, len(data), levels); err != nil {
		return err
	}
	if scratch == nil {
		scratch = make([]F, len(data))
	}
	n := len(data)
	for l := 0; l < levels; l++ {
		if n < 2 {
			break
		}
		copy(scratch[:n], data[:n])
		forwardLift(k, scratch[:n], data[:n])
		n = approxLen(n)
	}
	return nil
}

// Inverse1D undoes Transform1D with the same kernel and level count.
func Inverse1D[F num.Float](k Kernel, data []F, levels int, scratch []F) error {
	if err := checkLevels(k, len(data), levels); err != nil {
		return err
	}
	if scratch == nil {
		scratch = make([]F, len(data))
	}
	// Reconstruct from the coarsest level outward. Compute band lengths.
	lens := BandLengths(len(data), levels)
	for l := len(lens) - 1; l >= 0; l-- {
		n := lens[l]
		if n < 2 {
			continue
		}
		inverseLift(k, data[:n], scratch[:n])
		copy(data[:n], scratch[:n])
	}
	return nil
}

// checkLevels validates the level count against signal length and kernel.
func checkLevels(k Kernel, n, levels int) error {
	if !k.Valid() {
		return fmt.Errorf("wavelet: invalid kernel %d", int(k))
	}
	if levels < 0 {
		return fmt.Errorf("wavelet: negative level count %d", levels)
	}
	if max := MaxLevels(k, n); levels > max {
		return fmt.Errorf("wavelet: %d levels exceeds maximum %d for kernel %v and length %d", levels, max, k, n)
	}
	return nil
}
