package compress

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"stwave/internal/num"
	"stwave/internal/par"
	"stwave/internal/scratch"
)

// Sparse on-disk encoding of a thresholded coefficient array. Layout:
//
//	uint64  total coefficient count N
//	uint64  retained coefficient count K
//	ceil(N/8) bytes  significance bitmap (bit i set => coefficient i retained)
//	K * 4 bytes      retained values as little-endian float32, in index order
//
// This makes file sizes honest: a ratio:1 compression of N float32 samples
// costs N/8 + 4K bytes rather than the idealized 4K the paper's accounting
// uses; EncodedSizeBytes exposes both so the harness can report either.

// SparseBlock is the in-memory form of an encoded coefficient set.
type SparseBlock struct {
	Total  int
	Bitmap []byte
	Values []float32
}

// sparseChunk is the per-task granule of the parallel decode pass. It is
// a multiple of 8 so no two chunks ever share a bitmap byte.
const sparseChunk = 1 << 15

// NewSparseBlock encodes a (typically thresholded) coefficient slice.
// Zero-valued coefficients are treated as discarded.
func NewSparseBlock(coeffs []float64) *SparseBlock {
	return NewSparseBlockP(coeffs, 1)
}

// NewSparseBlockP is NewSparseBlock with the nonzero scan on up to workers
// goroutines. Output is identical for every worker count, and identical at
// float32 to encoding the widened float64 copy: the block stores 32-bit
// values either way.
func NewSparseBlockP[F num.Float](coeffs []F, workers int) *SparseBlock {
	return EncodeBlocks([][]F{coeffs}, workers)[0]
}

// Retained returns the number of surviving coefficients.
func (b *SparseBlock) Retained() int { return len(b.Values) }

// EncodeBlocks encodes one block per dense coefficient slice: the nonzeros
// are collected (Nonzeros) and encoded by EncodeSurvivorBlocks.
func EncodeBlocks[F num.Float](datas [][]F, workers int) []*SparseBlock {
	return EncodeSurvivorBlocks(Nonzeros(datas, workers), workers)
}

// EncodeSurvivorBlocks encodes one block per survivor list (see
// CheckSurvivors for the input contract), with all blocks, bitmaps, and
// value arrays carved from three shared allocations, so the per-window
// encode path allocates O(1) instead of O(slices). Only the survivors are
// visited; the bitmap is the one dense structure, at one bit per
// coefficient.
func EncodeSurvivorBlocks(survs []Survivors, workers int) []*SparseBlock {
	nb := len(survs)
	blocks := make([]*SparseBlock, nb)
	if nb == 0 {
		return blocks
	}
	arr := make([]SparseBlock, nb)
	totalBits, totalVals := 0, 0
	for _, s := range survs {
		totalBits += (s.Total + 7) / 8
		totalVals += len(s.Idx)
	}
	bitmapSlab := make([]byte, totalBits)
	valueSlab := make([]float32, totalVals)
	bo, vo := 0, 0
	for bi, s := range survs {
		bn, vn := (s.Total+7)/8, len(s.Idx)
		arr[bi] = SparseBlock{
			Total:  s.Total,
			Bitmap: bitmapSlab[bo : bo+bn : bo+bn],
		}
		if vn > 0 {
			arr[bi].Values = valueSlab[vo : vo+vn : vo+vn]
		}
		blocks[bi] = &arr[bi]
		bo += bn
		vo += vn
	}
	par.For(nb, workers, 1, func(start, end int) {
		for bi := start; bi < end; bi++ {
			b, s := blocks[bi], survs[bi]
			for j, i := range s.Idx {
				b.Bitmap[i>>3] |= 1 << uint(i&7)
				b.Values[j] = float32(s.Val[j]) //stlint:ignore trunccast the sparse block stores 32-bit values by format contract (DESIGN section 5)
			}
		}
	})
	return blocks
}

// Decode expands the block back into a dense coefficient slice of length
// Total (discarded coefficients are zero).
func (b *SparseBlock) Decode() []float64 {
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

// DecodeInto expands b into out, which must have length b.Total, on up to
// workers goroutines: a popcount pass over the bitmap gives every chunk
// its offset into Values, then chunks expand independently. Output is
// identical for every worker count; at float32 it is the stored values bit
// for bit. (A function, not a method: methods cannot take type parameters.)
func DecodeInto[F num.Float](b *SparseBlock, out []F, workers int) error {
	if len(out) != b.Total {
		return fmt.Errorf("compress: DecodeInto length %d != total %d", len(out), b.Total)
	}
	n := b.Total
	if n == 0 {
		return nil
	}
	nch := (n + sparseChunk - 1) / sparseChunk
	counts := scratch.Uint64s(nch)
	par.For(nch, workers, 1, func(start, end int) {
		for ci := start; ci < end; ci++ {
			lo, hi := ci*sparseChunk, (ci+1)*sparseChunk
			if hi > n {
				hi = n
			}
			// Chunks are byte-aligned except possibly the final partial
			// byte, which belongs wholly to the last chunk.
			pop := 0
			for _, byteV := range b.Bitmap[lo>>3 : (hi+7)>>3] {
				pop += popcount(byteV)
			}
			counts[ci] = uint64(pop) //stlint:ignore trunccast pop is a non-negative popcount
		}
	})
	vi := 0
	for ci := range counts {
		c := int(counts[ci])    //stlint:ignore trunccast counts holds per-chunk popcounts bounded by b.Total
		counts[ci] = uint64(vi) //stlint:ignore trunccast vi is a running non-negative prefix sum
		vi += c
	}
	if vi > len(b.Values) {
		scratch.PutUint64s(counts)
		return fmt.Errorf("compress: bitmap popcount %d exceeds %d stored values", vi, len(b.Values))
	}
	par.For(nch, workers, 1, func(start, end int) {
		for ci := start; ci < end; ci++ {
			lo, hi := ci*sparseChunk, (ci+1)*sparseChunk
			if hi > n {
				hi = n
			}
			vi := int(counts[ci]) //stlint:ignore trunccast counts now holds prefix offsets, checked against len(b.Values) above
			for i := lo; i < hi; i++ {
				if b.Bitmap[i>>3]&(1<<uint(i&7)) != 0 {
					out[i] = F(b.Values[vi])
					vi++
				} else {
					out[i] = 0
				}
			}
		}
	})
	scratch.PutUint64s(counts)
	return nil
}

// EncodedSizeBytes returns the exact serialized size of the block: header,
// bitmap, and values.
func (b *SparseBlock) EncodedSizeBytes() int64 {
	return 16 + int64(len(b.Bitmap)) + 4*int64(len(b.Values))
}

// IdealSizeBytes returns the paper's idealized accounting: 4 bytes per
// retained coefficient, ignoring significance-map overhead.
func (b *SparseBlock) IdealSizeBytes() int64 { return 4 * int64(len(b.Values)) }

// WriteTo serializes the block. It implements io.WriterTo.
func (b *SparseBlock) WriteTo(w io.Writer) (int64, error) {
	// A hand-built block with a negative Total would frame as an enormous
	// unsigned count and poison every later read; refuse to serialize it.
	if b.Total < 0 {
		return 0, fmt.Errorf("compress: negative block total %d", b.Total)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(b.Total))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(b.Values)))
	var written int64
	n, err := bw.Write(hdr[:])
	written += int64(n)
	if err != nil {
		return written, err
	}
	n, err = bw.Write(b.Bitmap)
	written += int64(n)
	if err != nil {
		return written, err
	}
	var vb [4]byte
	for _, v := range b.Values {
		binary.LittleEndian.PutUint32(vb[:], math.Float32bits(v))
		n, err = bw.Write(vb[:])
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// ReadSparseBlock deserializes a block written by WriteTo. It reads exactly
// EncodedSizeBytes bytes from r — safe to call repeatedly on one stream —
// and deliberately avoids internal buffering for that reason.
func ReadSparseBlock(r io.Reader) (*SparseBlock, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("compress: reading sparse header: %w", err)
	}
	totalU := binary.LittleEndian.Uint64(hdr[0:8])
	kU := binary.LittleEndian.Uint64(hdr[8:16])
	// Validate the raw unsigned fields before narrowing to int: the
	// sanity cap (one block is one 3D field; 2^31 samples is a 1290³
	// grid) also bounds allocation against forged headers. The cap is
	// exclusive so an accepted total fits in int on 32-bit platforms.
	if kU > totalU {
		return nil, fmt.Errorf("compress: corrupt sparse header (total=%d retained=%d)", totalU, kU)
	}
	if totalU >= 1<<31 {
		return nil, fmt.Errorf("compress: implausible block size %d samples", totalU)
	}
	total := int(totalU)
	k := int(kU)
	b := &SparseBlock{
		Total:  total,
		Bitmap: make([]byte, (total+7)/8),
	}
	if _, err := io.ReadFull(r, b.Bitmap); err != nil {
		return nil, fmt.Errorf("compress: reading bitmap: %w", err)
	}
	// Validate population count against k before allocating the values.
	pop := 0
	for _, byteV := range b.Bitmap {
		pop += popcount(byteV)
	}
	if pop != k {
		return nil, fmt.Errorf("compress: bitmap popcount %d != retained count %d", pop, k)
	}
	b.Values = make([]float32, k)
	raw := make([]byte, 4*k)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("compress: reading %d values: %w", k, err)
	}
	for i := range b.Values {
		b.Values[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return b, nil
}

func popcount(b byte) int {
	n := 0
	for b != 0 {
		b &= b - 1
		n++
	}
	return n
}
