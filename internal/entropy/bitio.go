// Package entropy implements the quantize → entropy-code stage of the
// pipeline: a uniform scalar quantizer (configurable bit depth or absolute
// error bound, plus an exact lossless mode) feeding a canonical Huffman
// coder over magnitude classes with an exponential-Golomb escape path for
// outliers. It is the coefficient backend behind the "entropy" codec in
// internal/codec, and roughly halves on-disk size against the sparse
// float32 backend at equal reported error (the WaveRange observation the
// ROADMAP's first open item calls for).
//
// The unit of coding is a Block: one thresholded coefficient slice, mostly
// zeros, encoded as (gap, value) pairs. Retained positions are coded as
// exponential-Golomb gaps; retained values are quantized and coded as a
// Huffman magnitude class plus raw refinement bits and a sign. Blocks are
// internally split into fixed-size coefficient chunks that encode and
// decode independently, so both directions parallelize under the
// internal/par worker budget while producing bit-identical streams at
// every worker count.
package entropy

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// wordWriter appends bits MSB-first into a byte region whose final size
// the encoder computed in advance: whole 64-bit words go out with one
// big-endian store, and finish writes the last partial word's bytes,
// zero-padding the final partial byte.
type wordWriter struct {
	dst  []byte
	pos  int    // bytes written to dst
	acc  uint64 // pending bits in the low n bits; any bits above are stale
	n    uint   // pending bit count, < 64 between calls
	over bool   // a write ran past dst
}

// write appends the low l bits of v, most significant first. l must be in
// [0, 64] and v must have no bits at or above l.
func (w *wordWriter) write(v uint64, l uint) {
	if l < 64-w.n {
		w.acc = w.acc<<l | v
		w.n += l
		return
	}
	w.flush(v, l)
}

// flush completes the pending word with the top bits of v, stores it, and
// keeps the rest of v pending.
func (w *wordWriter) flush(v uint64, l uint) {
	free := 64 - w.n
	rest := l - free
	if len(w.dst)-w.pos < 8 {
		w.over = true
		return
	}
	// acc<<free drops the stale bits above the pending ones, and the stale
	// bits of v left in acc sit above the new n, where the next word's
	// shift drops them in turn.
	binary.BigEndian.PutUint64(w.dst[w.pos:], w.acc<<free|v>>rest)
	w.pos += 8
	w.acc, w.n = v, rest
}

// finish writes the pending bits and reports whether the stream filled
// dst exactly.
func (w *wordWriter) finish() bool {
	last := w.acc << (64 - w.n)
	for k := uint(0); k < w.n; k += 8 {
		if w.pos == len(w.dst) {
			return false
		}
		w.dst[w.pos] = byte(last >> 56) //stlint:ignore trunccast the top byte of the left-aligned pending bits
		last <<= 8
		w.pos++
	}
	return !w.over && w.pos == len(w.dst)
}

// expGolomb returns v's order-k exponential-Golomb code as one value and
// its length: with v' = v + 2^k and n = bits.Len(v'), the code is n-1-k
// zero bits followed by the n bits of v', which is v' written in 2n-1-k
// bits. Order 0 codes 0 as "1", 1 as "010", 2 as "011"…; higher orders
// trade a longer minimum code for flatter growth, which suits streams
// whose typical value is near 2^k. v must be below 2^62 and k at most
// 30, so the code fits one word whenever v < 2^32.
func expGolomb(v uint64, k uint) (code uint64, length uint) {
	vp := v + 1<<k
	n := uint(bits.Len64(vp)) //stlint:ignore trunccast bits.Len64 of a nonzero value is in [1, 64]
	return vp, 2*n - 1 - k
}

// BitReader consumes bits MSB-first from a byte slice. Reads past the end
// of the buffer return errors rather than padding, so a truncated or
// corrupt stream is always detected.
type BitReader struct {
	buf []byte
	pos int // bit cursor
}

// NewBitReader reads bits from buf. The reader does not copy buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// errTruncated is the error for any read past the end of the stream.
var errTruncated = fmt.Errorf("entropy: bitstream truncated")

// ReadBits reads n bits (n in [0, 64]) MSB-first.
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("entropy: cannot read %d bits at once", n)
	}
	if r.pos+int(n) > len(r.buf)*8 {
		return 0, errTruncated
	}
	var v uint64
	pos := r.pos
	for rem := n; rem > 0; {
		byteIdx := pos >> 3
		bitOff := uint(pos & 7)
		avail := 8 - bitOff
		take := avail
		if take > rem {
			take = rem
		}
		chunk := uint64(r.buf[byteIdx]>>(avail-take)) & ((1 << take) - 1)
		v = v<<take | chunk
		pos += int(take)
		rem -= take
	}
	r.pos = pos
	return v, nil
}

// ReadBit reads a single bit.
func (r *BitReader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// ReadExpGolomb reads one order-k exponential-Golomb value (see
// expGolomb). Streams whose zero-run implies a value beyond 64 bits
// are rejected as corrupt.
func (r *BitReader) ReadExpGolomb(k uint) (uint64, error) {
	if k > 62 {
		k = 62
	}
	zeros := uint(0)
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros+k+1 > 64 {
			return 0, fmt.Errorf("entropy: exp-golomb prefix of %d zeros exceeds 64-bit range", zeros)
		}
	}
	n := zeros + k + 1 // total code length including the marker bit read above
	rest, err := r.ReadBits(n - 1)
	if err != nil {
		return 0, err
	}
	vp := 1<<(n-1) | rest
	return vp - 1<<k, nil
}
