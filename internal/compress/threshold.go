// Package compress implements coefficient selection and coding: given a
// target compression ratio n:1, it retains the 1/n largest-magnitude wavelet
// coefficients and discards the rest, exactly as the paper's Section IV-A
// step three describes. Selection hands its result on as sparse survivor
// lists (SelectSurvivors) so the codecs never rescan the dense window; the
// in-place dense form (ThresholdSlices) is the same selection plus a
// zero-fill. It also provides a sparse on-disk encoding (significance
// bitmap + packed float32 values) so real file sizes can be measured, and
// budget helpers for per-slice (3D) versus whole-window (4D) coefficient
// accounting.
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
// a reconstruction exists at extreme ratios. Non-finite ratios are
// rejected: NaN would otherwise slip past every ordered comparison and
// silently keep a single coefficient.
func KeepCount(total int, ratio float64) (int, error) {
	if math.IsNaN(ratio) || math.IsInf(ratio, 0) || ratio < 1 {
		return 0, fmt.Errorf("compress: ratio must be finite and >= 1, got %g", ratio)
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

// Survivors is one slice's retained coefficients in sparse form: the
// strictly ascending indices of its nonzero survivors within a dense slice
// of length Total, and their values widened to float64 (exact at either
// precision). It is the hand-off from selection to the codecs, so nothing
// downstream of the threshold reads the dense window again.
type Survivors struct {
	Total int
	Idx   []int
	Val   []float64
}

// CheckSurvivors reports the first list that is not a valid encoder
// input: one value per index, indices strictly ascending inside [0,
// Total), and no zero values (a zero is a discarded coefficient).
func CheckSurvivors(survs []Survivors) error {
	for si, s := range survs {
		if s.Total < 0 || len(s.Val) != len(s.Idx) {
			return fmt.Errorf("compress: survivor list %d: %d indices, %d values, total %d", si, len(s.Idx), len(s.Val), s.Total)
		}
		prev := -1
		for j, i := range s.Idx {
			if i <= prev || i >= s.Total {
				return fmt.Errorf("compress: survivor list %d: index %d at position %d is out of order or outside [0, %d)", si, i, j, s.Total)
			}
			if fbits.Zero(s.Val[j]) {
				return fmt.Errorf("compress: survivor list %d: zero value at index %d", si, i)
			}
			prev = i
		}
	}
	return nil
}

// carve splits one (idx, val) slab, ordered by slice, into per-slice
// survivor lists of the given lengths.
func carve[F num.Float](slices [][]F, lens []int, idx []int, val []float64) []Survivors {
	out := make([]Survivors, len(slices))
	off := 0
	for si, s := range slices {
		n := lens[si]
		out[si] = Survivors{Total: len(s), Idx: idx[off : off+n : off+n], Val: val[off : off+n : off+n]}
		off += n
	}
	return out
}

// Nonzeros collects every nonzero coefficient of each slice as survivors:
// the sparse form of an already-thresholded dense window, for callers that
// still hold one. A counting pass sizes every chunk's region and a fill
// pass writes it, both on up to workers goroutines; the result is
// identical for every worker count.
func Nonzeros[F num.Float](slices [][]F, workers int) []Survivors {
	chunks, _ := buildChunks(slices)
	return collectNonzeros(slices, chunks, workers)
}

func collectNonzeros[F num.Float](slices [][]F, chunks []thChunk, workers int) []Survivors {
	nch := len(chunks)
	offs := scratch.Uint64s(nch + 1)
	defer scratch.PutUint64s(offs)
	par.For(nch, workers, 1, func(start, end int) {
		for ci := start; ci < end; ci++ {
			ch := chunks[ci]
			n := uint64(0)
			for _, v := range slices[ch.si][ch.lo:ch.hi] {
				if !fbits.Zero(v) {
					n++
				}
			}
			offs[ci+1] = n
		}
	})
	offs[0] = 0
	lens := make([]int, len(slices))
	for ci, ch := range chunks {
		lens[ch.si] += int(offs[ci+1]) //stlint:ignore trunccast a per-chunk count bounded by thresholdChunk
		offs[ci+1] += offs[ci]
	}
	n := int(offs[nch]) //stlint:ignore trunccast the survivor total is bounded by the input length
	idx, val := make([]int, n), make([]float64, n)
	par.For(nch, workers, 1, func(start, end int) {
		for ci := start; ci < end; ci++ {
			ch := chunks[ci]
			o := int(offs[ci]) //stlint:ignore trunccast prefix offsets are bounded by n
			for j, v := range slices[ch.si][ch.lo:ch.hi] {
				if !fbits.Zero(v) {
					idx[o], val[o] = ch.lo+j, float64(v)
					o++
				}
			}
		}
	})
	return carve(slices, lens, idx, val)
}

// SelectSurvivors picks the keep largest magnitudes across the
// concatenation of slices (in slice order), ties admitted in global index
// order, and returns them per slice as ascending survivor lists with
// exact zeros dropped. The coefficients are only read.
//
// Two parallel passes touch the dense data: a per-chunk key histogram,
// which locates the bucket holding the cut and sizes every chunk's
// candidate region, then a gather of the index of every key in or above
// that bucket (and of the cut bucket's keys for the quickselect). All
// later work is on the candidates alone. The result is identical for
// every worker count, including 1; at float32 the survivors are exactly
// those of the widened float64 copy.
func SelectSurvivors[F num.Float](slices [][]F, keep, workers int) []Survivors {
	survs, _ := selectSurvivors(slices, keep, workers)
	return survs
}

// selectSurvivors is SelectSurvivors that also reports how many zeros the
// tie budget admitted (nonzero only when the cut reaches the zeros):
// ThresholdSlices leaves those, the first in index order, untouched.
func selectSurvivors[F num.Float](slices [][]F, keep, workers int) (survs []Survivors, zeroTies int) {
	chunks, total := buildChunks(slices)
	if keep >= total {
		return collectNonzeros(slices, chunks, workers), 0
	}
	if keep <= 0 {
		return carve(slices, make([]int, len(slices)), nil, nil), 0
	}
	nch := len(chunks)

	// Pass 1: one histogram per chunk, merged into the global one.
	hists := scratch.Uint64s(nch * histSize)
	defer scratch.PutUint64s(hists)
	var mu sync.Mutex
	var hist [histSize]uint64
	par.For(nch, workers, 1, func(start, end int) {
		var local [histSize]uint64
		for ci := start; ci < end; ci++ {
			ch := chunks[ci]
			h := hists[ci*histSize : (ci+1)*histSize]
			clear(h)
			for _, v := range slices[ch.si][ch.lo:ch.hi] {
				h[magKey(v)>>histShift]++
			}
			for b, c := range h {
				local[b] += c
			}
		}
		mu.Lock()
		for b, c := range local {
			hist[b] += c
		}
		mu.Unlock()
	})

	// Walk buckets from the largest magnitudes down to the one holding the
	// keep-th largest key.
	bucket, before := 0, 0
	for b := histSize - 1; b >= 0; b-- {
		c := int(hist[b]) //stlint:ignore trunccast a bucket count is bounded by the input length
		if before+c >= keep {
			bucket = b
			break
		}
		before += c
	}

	// Candidate and cut-bucket regions per chunk, in chunk (= index) order.
	offs := scratch.Uint64s(2 * (nch + 1))
	defer scratch.PutUint64s(offs)
	coff, boff := offs[:nch+1], offs[nch+1:]
	coff[0], boff[0] = 0, 0
	for ci := 0; ci < nch; ci++ {
		h := hists[ci*histSize : (ci+1)*histSize]
		c := uint64(0)
		for _, n := range h[bucket:] {
			c += n
		}
		coff[ci+1] = coff[ci] + c
		boff[ci+1] = boff[ci] + h[bucket]
	}
	cidx := scratch.Uint64s(int(coff[nch])) //stlint:ignore trunccast the candidate total is bounded by the input length
	defer scratch.PutUint64s(cidx)
	bkeys := scratch.Uint64s(int(boff[nch])) //stlint:ignore trunccast the bucket total is bounded by the input length
	defer scratch.PutUint64s(bkeys)

	// Pass 2: gather candidates. Bucket 0 holds the zeros, so a cut there
	// gathers them too; they are dropped at emission.
	ub := uint64(bucket) //stlint:ignore trunccast bucket is a histogram index in [0, histSize)
	low := ub << histShift
	par.For(nch, workers, 1, func(start, end int) {
		for ci := start; ci < end; ci++ {
			ch := chunks[ci]
			c, b := coff[ci], boff[ci]
			for j, v := range slices[ch.si][ch.lo:ch.hi] {
				k := magKey(v)
				if k < low {
					continue
				}
				cidx[c] = uint64(ch.lo + j) //stlint:ignore trunccast a non-negative element index
				c++
				if k>>histShift == ub {
					bkeys[b] = k
					b++
				}
			}
		}
	})

	// Every key in a higher bucket is > cut (the bucket is the key's most
	// significant bits), so only the cut bucket needs the quickselect.
	cut := selectKthU64Desc(bkeys, keep-1-before)
	greater, ties := before, 0
	for _, k := range bkeys {
		if k > cut {
			greater++
		} else if k == cut {
			ties++
		}
	}
	budget := keep - greater // ties admitted in index order
	n := keep
	if cut == 0 {
		n = greater // admitted ties are zeros, discarded either way
	}

	idx, val := make([]int, n), make([]float64, n)
	lens := make([]int, len(slices))
	o := 0
	for ci, ch := range chunks {
		data := slices[ch.si]
		for _, c := range cidx[coff[ci]:coff[ci+1]] {
			v := data[c]
			k := magKey(v)
			if k < cut {
				continue
			}
			if k == cut {
				if budget == 0 {
					continue
				}
				budget--
				if k == 0 {
					zeroTies++
					continue
				}
			}
			idx[o], val[o] = int(c), float64(v) //stlint:ignore trunccast c is an element index below len(data)
			o++
			lens[ch.si]++
		}
	}
	return carve(slices, lens, idx, val), zeroTies
}

// Threshold zeroes, in place, all but the keep largest-magnitude entries of
// coeffs and returns the number actually retained (== keep except for
// degenerate inputs). Ties at the cut magnitude are resolved in index
// order, deterministically: exactly `keep` coefficients survive.
func Threshold[F num.Float](coeffs []F, keep int) int {
	return ThresholdSlices([][]F{coeffs}, keep, 1)
}

// ThresholdSlices is Threshold over the concatenation of slices (in slice
// order) without materializing it: SelectSurvivors, then a zero-fill of
// every position that did not survive. The survivors keep their exact
// input bits. Output is bit-identical for every worker count, including 1.
func ThresholdSlices[F num.Float](slices [][]F, keep, workers int) int {
	total := 0
	for _, s := range slices {
		total += len(s)
	}
	if keep >= total {
		return total
	}
	survs, zeroTies := selectSurvivors(slices, keep, workers)
	if zeroTies > 0 {
		// The cut reached the zeros: the first zeroTies of them are
		// admitted ties and keep their sign bits, as in a serial
		// threshold. Rare enough for one ordered walk.
		for si, d := range slices {
			idx, p := survs[si].Idx, 0
			for j, v := range d {
				switch {
				case p < len(idx) && idx[p] == j:
					p++
				case zeroTies > 0 && fbits.Zero(v):
					zeroTies--
				default:
					d[j] = 0
				}
			}
		}
		return keep
	}
	par.For(len(slices), workers, 1, func(start, end int) {
		for si := start; si < end; si++ {
			d, prev := slices[si], 0
			for _, i := range survs[si].Idx {
				clear(d[prev:i])
				prev = i + 1
			}
			clear(d[prev:])
		}
	})
	return max(keep, 0)
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
