// Package compress implements coefficient selection and coding: given a
// target compression ratio n:1, it retains the 1/n largest-magnitude wavelet
// coefficients and discards (zeroes) the rest, exactly as the paper's
// Section IV-A step three describes. It also provides a sparse on-disk
// encoding (significance bitmap + packed float32 values) so real file sizes
// can be measured, and budget helpers for per-slice (3D) versus whole-window
// (4D) coefficient accounting.
package compress

import (
	"fmt"
	"math"
	"sync"

	"stwave/internal/fbits"
	"stwave/internal/num"
	"stwave/internal/par"
	"stwave/internal/scratch"
)

// KeepCount returns how many coefficients a ratio:1 compression retains out
// of total. Ratio 1 retains everything. Always at least 1 when total > 0 so
// a reconstruction exists at extreme ratios.
func KeepCount(total int, ratio float64) (int, error) {
	if ratio < 1 {
		return 0, fmt.Errorf("compress: ratio must be >= 1, got %g", ratio)
	}
	if total <= 0 {
		return 0, nil
	}
	k := int(float64(total) / ratio)
	if k < 1 {
		k = 1
	}
	if k > total {
		k = total
	}
	return k, nil
}

// Selection runs on the raw IEEE-754 bit patterns of coefficient
// magnitudes: for non-NaN doubles, clearing the sign bit leaves an
// unsigned integer whose order matches the magnitude order exactly, so
// the k-th largest magnitude is the k-th largest key. A histogram over the
// top histBits bits of the keys narrows the cut to one bucket in a single
// counting pass; only that bucket's keys (usually a small fraction of the
// input) see the quickselect. NaN payloads rank above +Inf in key order —
// a deterministic total order where float comparison has none.
const (
	histBits   = 11
	histSize   = 1 << histBits
	histShift  = 64 - histBits
	signMask   = 1 << 63
	sign32Mask = 1 << 31

	// thresholdChunk is the fixed per-task granule of the parallel passes.
	// Chunk boundaries are deterministic (independent of the worker count),
	// and tie admission follows chunk order = index order, so the output is
	// bit-identical for every worker count.
	thresholdChunk = 1 << 15
)

// thChunk is one fixed-size range of the concatenated coefficient domain,
// never straddling a slice boundary.
type thChunk struct {
	si     int // slice index
	lo, hi int // element range within slice si
}

func buildChunks[F num.Float](slices [][]F) (chunks []thChunk, total int) {
	n := 0
	for _, s := range slices {
		n += (len(s) + thresholdChunk - 1) / thresholdChunk
	}
	chunks = make([]thChunk, 0, n)
	for si, s := range slices {
		for lo := 0; lo < len(s); lo += thresholdChunk {
			hi := lo + thresholdChunk
			if hi > len(s) {
				hi = len(s)
			}
			chunks = append(chunks, thChunk{si: si, lo: lo, hi: hi})
			total += hi - lo
		}
	}
	return chunks, total
}

// magKey is the sortable magnitude key of v: the IEEE-754 bit pattern with
// the sign cleared. Unsigned comparison of keys orders by |v| (NaNs sort
// above all finite magnitudes). Recomputing it per pass is two ALU ops —
// cheaper than materializing a key-per-coefficient slab and streaming it
// back through the cache in every pass.
//
// A float32 key is its own 32-bit pattern shifted into the top half, so
// bucket indices, the quickselect and the tie rules treat both precisions
// alike. Widening to float64 first would select the same survivors, but
// float32 magnitudes would then spread over a quarter as many histogram
// buckets (the index would hold exponent range a float32 never reaches
// instead of its top mantissa bits), leaving more work for the quickselect.
func magKey[F num.Float](v F) uint64 {
	if num.Is32[F]() {
		return uint64(math.Float32bits(float32(v))&^uint32(sign32Mask)) << 32 //stlint:ignore trunccast Is32 branch: F is float32, so float32(v) is the identity
	}
	return math.Float64bits(float64(v)) &^ signMask
}

// cutKeySlices finds the magnitude-bit key of the keep-th largest
// magnitude across all slices and returns it together with the number of
// keys strictly greater than it. Requires 0 < keep <= total.
func cutKeySlices[F num.Float](slices [][]F, chunks []thChunk, keep, workers int) (cut uint64, greater int) {
	var mu sync.Mutex
	var hist [histSize]int
	par.For(len(chunks), workers, 1, func(start, end int) {
		var local [histSize]int
		for ci := start; ci < end; ci++ {
			ch := chunks[ci]
			for _, v := range slices[ch.si][ch.lo:ch.hi] {
				local[magKey(v)>>histShift]++
			}
		}
		mu.Lock()
		for i, c := range local {
			if c != 0 {
				hist[i] += c
			}
		}
		mu.Unlock()
	})

	// Walk buckets from the largest magnitudes down to the one holding the
	// keep-th largest key.
	bucket, before := 0, 0
	for b := histSize - 1; b >= 0; b-- {
		if before+hist[b] >= keep {
			bucket = b
			break
		}
		before += hist[b]
	}

	cands := scratch.Uint64s(hist[bucket])
	ci := 0
	for _, s := range slices {
		for _, v := range s {
			if k := magKey(v); int(k>>histShift) == bucket { //stlint:ignore trunccast the shift keeps 11 bits, far inside int range
				cands[ci] = k
				ci++
			}
		}
	}
	cut = selectKthU64Desc(cands, keep-1-before)
	// Every key in a higher bucket is > cut (the bucket is the key's most
	// significant bits), so only the candidate bucket needs a scan.
	greater = before
	for _, k := range cands {
		if k > cut {
			greater++
		}
	}
	scratch.PutUint64s(cands)
	return cut, greater
}

// Threshold zeroes, in place, all but the keep largest-magnitude entries of
// coeffs and returns the number actually retained (== keep except for
// degenerate inputs). Ties at the cut magnitude are resolved in index
// order, deterministically: exactly `keep` coefficients survive.
func Threshold[F num.Float](coeffs []F, keep int) int {
	return ThresholdSlices([][]F{coeffs}, keep, 1)
}

// ThresholdSlices is Threshold over the concatenation of slices (in slice
// order) without materializing it: the keep largest magnitudes across all
// slices survive, ties admitted in global index order. The selection and
// the zeroing passes run on up to workers goroutines; the output is
// bit-identical for every worker count, including 1. At float32 the
// survivors are exactly those of the widened float64 copy.
func ThresholdSlices[F num.Float](slices [][]F, keep, workers int) int {
	chunks, total := buildChunks(slices)
	if keep >= total {
		return total
	}
	if keep <= 0 {
		par.For(len(chunks), workers, 1, func(start, end int) {
			for ci := start; ci < end; ci++ {
				ch := chunks[ci]
				data := slices[ch.si][ch.lo:ch.hi]
				for j := range data {
					data[j] = 0
				}
			}
		})
		return 0
	}

	cut, totalGreater := cutKeySlices(slices, chunks, keep, workers)

	if workers <= 1 {
		// Serial fast path: ties admit in index order against one running
		// budget, so the per-chunk counting pass is unnecessary.
		budget := keep - totalGreater
		for _, ch := range chunks {
			data := slices[ch.si][ch.lo:ch.hi]
			for j, v := range data {
				k := magKey(v)
				if k > cut {
					continue
				}
				if k == cut && budget > 0 {
					budget--
					continue
				}
				data[j] = 0
			}
		}
		return keep
	}

	// Count, per chunk, the ties at the cut (the strictly-greater total is
	// already known globally; only ties need a per-chunk split for the
	// prefix below).
	nch := len(chunks)
	ties := scratch.Uint64s(nch)
	par.For(nch, workers, 1, func(start, end int) {
		for ci := start; ci < end; ci++ {
			ch := chunks[ci]
			t := 0
			for _, v := range slices[ch.si][ch.lo:ch.hi] {
				if magKey(v) == cut {
					t++
				}
			}
			ties[ci] = uint64(t) //stlint:ignore trunccast t is a non-negative tie count
		}
	})

	// Prefix over chunks in index order: chunk ci may admit only the ties
	// left after every earlier chunk took theirs — the serial tie rule.
	budget := keep - totalGreater
	for ci := range ties {
		admit := int(ties[ci]) //stlint:ignore trunccast ties holds per-chunk tallies bounded by the chunk size
		if admit > budget {
			admit = budget
		}
		ties[ci] = uint64(admit)
		budget -= admit
	}

	par.For(nch, workers, 1, func(start, end int) {
		for ci := start; ci < end; ci++ {
			ch := chunks[ci]
			data := slices[ch.si][ch.lo:ch.hi]
			admit := int(ties[ci]) //stlint:ignore trunccast ties holds clamped admit budgets bounded by keep
			for j, v := range data {
				k := magKey(v)
				if k > cut {
					continue
				}
				if k == cut && admit > 0 {
					admit--
					continue
				}
				data[j] = 0
			}
		}
	})

	scratch.PutUint64s(ties)
	return keep
}

// ThresholdSlices32 is ThresholdSlices at float32. It is kept only because
// the frozen benchmark harness (benchmark/ingest.go) calls it by name.
func ThresholdSlices32(slices [][]float32, keep, workers int) int {
	return ThresholdSlices(slices, keep, workers)
}

// ThresholdRatio is the common entry point: discards coefficients so that a
// ratio:1 compression is achieved, returning the retained count.
func ThresholdRatio[F num.Float](coeffs []F, ratio float64) (int, error) {
	keep, err := KeepCount(len(coeffs), ratio)
	if err != nil {
		return 0, err
	}
	return Threshold(coeffs, keep), nil
}

// selectKthU64Desc returns the k-th largest element (0-indexed) of a,
// using iterative 3-way quickselect — the equal region collapses
// duplicate-heavy inputs (the common case after the histogram narrows to
// one bucket) in a single partition instead of degrading quadratically.
// a is permuted.
func selectKthU64Desc(a []uint64, k int) uint64 {
	lo, hi := 0, len(a)-1
	for {
		if hi <= lo {
			return a[lo]
		}
		mid := lo + (hi-lo)/2
		p := medianU64(a[lo], a[mid], a[hi])
		// Partition descending into [ >p | ==p | <p ].
		i, j, m := lo, lo, hi
		for j <= m {
			switch {
			case a[j] > p:
				a[i], a[j] = a[j], a[i]
				i++
				j++
			case a[j] < p:
				a[j], a[m] = a[m], a[j]
				m--
			default:
				j++
			}
		}
		switch {
		case k < i:
			hi = i - 1
		case k <= m:
			return p
		default:
			lo = m + 1
		}
	}
}

func medianU64(a, b, c uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// CutoffMagnitude returns the magnitude of the keep-th largest coefficient
// without modifying coeffs — the threshold the paper describes finding
// relative to the largest-magnitude coefficient.
func CutoffMagnitude[F num.Float](coeffs []F, keep int) F {
	if keep <= 0 || len(coeffs) == 0 {
		return F(math.Inf(1))
	}
	if keep >= len(coeffs) {
		return 0
	}
	slices := [][]F{coeffs}
	chunks, _ := buildChunks(slices)
	cut, _ := cutKeySlices(slices, chunks, keep, 1)
	if num.Is32[F]() {
		return F(math.Float32frombits(uint32(cut >> 32))) //stlint:ignore trunccast the key's low 32 bits are zero by construction
	}
	return F(math.Float64frombits(cut))
}

// thresholdSerial is the original quickselect implementation, retained
// verbatim as the reference the equivalence tests pin ThresholdSlices
// against. It must not be changed independently of Threshold's documented
// semantics.
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
