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
	"unsafe"

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
// magnitudes: for non-NaN values, clearing the sign bit leaves an unsigned
// integer whose order matches the magnitude order exactly, so the k-th
// largest magnitude is the k-th largest key. A histogram over a monotone
// key → bucket map narrows the cut to one bucket in a single counting
// pass; only that bucket's keys see the quickselect. NaN payloads rank
// above +Inf in key order — a deterministic total order where float
// comparison has none.
//
// The map gives every binade binadeBuckets buckets: a bucket is the
// key's exponent and its top binadeBits mantissa bits. A float32 key fits
// whole — its 8 exponent bits and 3 mantissa bits are the top 11 bits
// below the cleared sign. A float64 exponent has 2048 binades, so the map
// keeps the 256 centred on 1 ([2^-128, 2^128)) and clamps the rest into
// the end buckets: bucket 0 holds the zeros and everything smaller,
// bucket histSize-1 everything larger, +Inf and NaN. Any monotone map
// selects the same survivors; a finer one leaves fewer keys in the cut
// bucket for the quickselect and the candidate gather.
const (
	histBits      = 11
	histSize      = 1 << histBits
	binadeBits    = 3
	binadeBuckets = 1 << binadeBits
	// bucketShift32 drops a float32 key's low half and its low 20 bits.
	bucketShift32 = 64 - 1 - histBits
	// bucketShift64 leaves a float64 key's exponent and top binadeBits
	// mantissa bits; bucketBase64 is that value at 2^-128.
	bucketShift64 = 52 - binadeBits
	bucketBase64  = (1023 - histSize/binadeBuckets/2) << binadeBits

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
// the quickselect and the tie rules treat both precisions alike, and its
// bucket (bucketOf) is its top bits with no clamp.
//
// magKey and bucketOf run once per coefficient in pass 1, so they test the
// precision with unsafe.Sizeof rather than num.Is32: both fold to a
// constant, but a generic call also leaves a dictionary load and nil
// check in the loop.
func magKey[F num.Float](v F) uint64 {
	if unsafe.Sizeof(v) == 4 {
		return uint64(math.Float32bits(float32(v))&^uint32(sign32Mask)) << 32 //stlint:ignore trunccast 4-byte branch: F is float32, so float32(v) is the identity
	}
	return math.Float64bits(float64(v)) &^ signMask
}

// bucketOf maps a magnitude key at precision F to its histogram bucket in
// [0, histSize): non-decreasing in the key, so every key of a higher
// bucket is larger than every key of a lower one.
func bucketOf[F num.Float](k uint64) uint {
	if unsafe.Sizeof(F(0)) == 4 {
		return uint(k>>bucketShift32) & (histSize - 1)
	}
	// Below the range the subtraction wraps, so one compare admits
	// exactly the in-range keys.
	if b := k>>bucketShift64 - bucketBase64; b < histSize {
		return uint(b)
	}
	if k>>bucketShift64 < bucketBase64 {
		return 0
	}
	return histSize - 1
}

// bucketLow returns the smallest key of bucket b at precision F, so that
// bucketOf(k) >= b exactly when k >= bucketLow(b).
func bucketLow[F num.Float](b uint) uint64 {
	switch {
	case num.Is32[F]():
		return uint64(b) << bucketShift32
	case b == 0:
		return 0
	}
	return uint64(b+bucketBase64) << bucketShift64
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

// slabs returns the first n entries of the caller's (idx, val) slabs, or
// fresh ones when the caller passed none.
func slabs(idx []int, val []float64, n int) ([]int, []float64) {
	if idx == nil {
		return make([]int, n), make([]float64, n)
	}
	return idx[:n], val[:n]
}

// Nonzeros collects every nonzero coefficient of each slice as survivors:
// the sparse form of an already-thresholded dense window, for callers that
// still hold one. A counting pass sizes every chunk's region and a fill
// pass writes it, both on up to workers goroutines; the result is
// identical for every worker count.
func Nonzeros[F num.Float](slices [][]F, workers int) []Survivors {
	chunks, _ := buildChunks(slices)
	return collectNonzeros(slices, chunks, workers, nil, nil)
}

func collectNonzeros[F num.Float](slices [][]F, chunks []thChunk, workers int, idxSlab []int, valSlab []float64) []Survivors {
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
	idx, val := slabs(idxSlab, valSlab, int(offs[nch])) //stlint:ignore trunccast the survivor total is bounded by the input length
	par.For(nch, workers, 1, func(start, end int) {
		for ci := start; ci < end; ci++ {
			ch := chunks[ci]
			o := int(offs[ci]) //stlint:ignore trunccast prefix offsets are bounded by the survivor total
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
// Two parallel passes touch the dense data: a per-chunk bucket histogram
// (bucketOf), which locates the bucket holding the cut and sizes every
// chunk's candidate region, then a gather of the index of every key in or
// above that bucket (and of the cut bucket's keys for the quickselect)
// that skips every chunk with no such key. All later work is on the
// candidates alone. The result is identical for every worker count,
// including 1; at float32 the survivors are exactly those of the widened
// float64 copy.
func SelectSurvivors[F num.Float](slices [][]F, keep, workers int) []Survivors {
	survs, _, _ := selectSurvivors(slices, keep, workers, nil, nil)
	return survs
}

// SelectSurvivorsInto is SelectSurvivors with the lists carved from the
// caller's slabs instead of fresh memory: idx and val need room for
// min(keep, total coefficients) survivors, and the returned lists are
// views into them, so a caller that recycles the slabs (core takes them
// from internal/scratch) must be done with the lists first.
func SelectSurvivorsInto[F num.Float](slices [][]F, keep, workers int, idx []int, val []float64) []Survivors {
	survs, _, _ := selectSurvivors(slices, keep, workers, idx, val)
	return survs
}

// selectStats counts one selection's work: the keys in the cut bucket
// (the quickselect's input), the candidates gathered (keys at or above
// the cut bucket), and the chunks pass 2 read rather than skipped.
type selectStats struct {
	cutBucketKeys, candidates, chunksRead int
}

// subHists is the number of interleaved sub-histograms pass 1 counts into,
// so that neighbouring coefficients in one bucket do not serialize on one
// counter's store → load chain.
const subHists = 4

// countChunk writes data's bucket histogram into h and adds it to total.
// The sub-histograms are a local array, which keeps the per-element loop
// free of pointer checks.
func countChunk[F num.Float](data []F, h []uint64, total *[histSize]uint64) {
	var sub [subHists][histSize]uint32
	n := len(data) &^ (subHists - 1)
	for j := 0; j < n; j += subHists {
		sub[0][bucketOf[F](magKey(data[j]))&(histSize-1)]++
		sub[1][bucketOf[F](magKey(data[j+1]))&(histSize-1)]++
		sub[2][bucketOf[F](magKey(data[j+2]))&(histSize-1)]++
		sub[3][bucketOf[F](magKey(data[j+3]))&(histSize-1)]++
	}
	for _, v := range data[n:] {
		sub[0][bucketOf[F](magKey(v))&(histSize-1)]++
	}
	h = h[:histSize]
	for b := range h {
		c := uint64(sub[0][b]) + uint64(sub[1][b]) + uint64(sub[2][b]) + uint64(sub[3][b])
		h[b] = c
		total[b] += c
	}
}

// gatherChunk writes into cands, which pass 1 sized exactly, the index
// (offset by lo) of every element of data whose key is at least low. It
// stays out of line: inlined into the pass-2 closure, its loop state
// spills to the stack. The branch predicts well, because coefficients
// above the cut cluster in the coarse corner of each row.
//
//go:noinline
func gatherChunk[F num.Float](data []F, lo int, low uint64, cands []uint64) {
	c := 0
	for j, v := range data {
		if magKey(v) >= low {
			cands[c] = uint64(lo + j) //stlint:ignore trunccast a non-negative element index
			c++
		}
	}
}

// selectSurvivors is SelectSurvivorsInto (nil slabs: fresh memory) that
// also reports how many zeros the tie budget admitted (nonzero only when
// the cut reaches the zeros; ThresholdSlices leaves those, the first in
// index order, untouched) and the selection's work counts.
func selectSurvivors[F num.Float](slices [][]F, keep, workers int, idxSlab []int, valSlab []float64) (survs []Survivors, zeroTies int, st selectStats) {
	chunks, total := buildChunks(slices)
	if keep >= total {
		return collectNonzeros(slices, chunks, workers, idxSlab, valSlab), 0, st
	}
	if keep <= 0 {
		return carve(slices, make([]int, len(slices)), nil, nil), 0, st
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
			countChunk(slices[ch.si][ch.lo:ch.hi], hists[ci*histSize:], &local)
		}
		mu.Lock()
		for b, c := range local {
			hist[b] += c
		}
		mu.Unlock()
	})

	// Walk buckets from the largest magnitudes down to the one holding the
	// keep-th largest key.
	bucket, before := uint(0), 0
	for b := histSize - 1; b >= 0; b-- {
		c := int(hist[b]) //stlint:ignore trunccast a bucket count is bounded by the input length
		if before+c >= keep {
			bucket = uint(b)
			break
		}
		before += c
	}

	// The cut bucket's key range is [low, high].
	low, high := bucketLow[F](bucket), uint64(math.MaxUint64)
	if bucket < histSize-1 {
		high = bucketLow[F](bucket+1) - 1
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
		if c > 0 {
			st.chunksRead++
		}
	}
	st.candidates = int(coff[nch])    //stlint:ignore trunccast the candidate total is bounded by the input length
	st.cutBucketKeys = int(boff[nch]) //stlint:ignore trunccast the bucket total is bounded by the input length
	cidx := scratch.Uint64s(st.candidates)
	defer scratch.PutUint64s(cidx)
	bkeys := scratch.Uint64s(st.cutBucketKeys)
	defer scratch.PutUint64s(bkeys)

	// Pass 2: gather candidates from the chunks that hold any, then the
	// cut bucket's keys from the chunk's few candidates. Bucket 0 holds
	// the zeros, so a cut there gathers them too; they are dropped at
	// emission.
	par.For(nch, workers, 1, func(start, end int) {
		for ci := start; ci < end; ci++ {
			if coff[ci] == coff[ci+1] {
				continue
			}
			ch := chunks[ci]
			data := slices[ch.si]
			cands := cidx[coff[ci]:coff[ci+1]]
			gatherChunk(data[ch.lo:ch.hi], ch.lo, low, cands)
			b := boff[ci]
			for _, i := range cands {
				if k := magKey(data[i]); k <= high {
					bkeys[b] = k
					b++
				}
			}
		}
	})

	// Every key in a higher bucket is > cut (the map is monotone), so only
	// the cut bucket needs the quickselect.
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

	idx, val := slabs(idxSlab, valSlab, n)
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
			idx[o], val[o] = int(c), float64(v)
			o++
			lens[ch.si]++
		}
	}
	return carve(slices, lens, idx, val), zeroTies, st
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
	survs, zeroTies, _ := selectSurvivors(slices, keep, workers, nil, nil)
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
