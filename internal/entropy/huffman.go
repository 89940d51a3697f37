package entropy

import (
	"fmt"
)

// Canonical Huffman over a small alphabet (magnitude classes plus an
// escape symbol — at most a few dozen symbols). Only code lengths cross
// the wire, one byte per symbol; both sides derive the same canonical
// codes from them, and the decoder validates the lengths (Kraft
// inequality) before trusting a single payload bit.

// maxHuffLen bounds code lengths. A Huffman tree over s leaves is at most
// s-1 deep, and the alphabet never exceeds 33 symbols, so 40 leaves slack
// on top of that is unreachable; the bound exists to reject forged tables.
const maxHuffLen = 63

// huffBuildLengths computes deterministic Huffman code lengths for the
// given symbol frequencies. Zero-frequency symbols get length 0 (no
// code). Ties are broken by symbol/creation order, so the result is a
// pure function of freqs — bit-identical streams at every worker count
// depend on this.
func huffBuildLengths(freqs []int64) []uint8 {
	n := len(freqs)
	lengths := make([]uint8, n)
	type node struct {
		freq        int64
		seq         int // stable tie-break: leaves by symbol, internals by creation
		left, right int // node indices; -1 for leaves
		sym         int
	}
	nodes := make([]node, 0, 2*n)
	live := make([]int, 0, n) // indices of nodes not yet merged
	for s, f := range freqs {
		if f > 0 {
			nodes = append(nodes, node{freq: f, seq: s, left: -1, right: -1, sym: s})
			live = append(live, len(nodes)-1)
		}
	}
	switch len(live) {
	case 0:
		return lengths
	case 1:
		// A single distinct symbol still needs one bit per occurrence so
		// the decoder can count values off the stream.
		lengths[nodes[live[0]].sym] = 1
		return lengths
	}
	// The alphabet is tiny (≤ 33 symbols), so a linear scan per merge is
	// cheaper and simpler than a heap.
	for len(live) > 1 {
		min1, min2 := -1, -1 // positions in live of the two smallest nodes
		for i, ni := range live {
			nd := nodes[ni]
			better := func(pos int) bool {
				o := nodes[live[pos]]
				return nd.freq < o.freq || (nd.freq == o.freq && nd.seq < o.seq)
			}
			switch {
			case min1 < 0 || better(min1):
				min1, min2 = i, min1
			case min2 < 0 || better(min2):
				min2 = i
			}
		}
		a, b := live[min1], live[min2]
		nodes = append(nodes, node{freq: nodes[a].freq + nodes[b].freq, seq: len(nodes), left: a, right: b})
		// Replace the two merged entries with the new internal node.
		merged := len(nodes) - 1
		keep := live[:0]
		for _, ni := range live {
			if ni != a && ni != b {
				keep = append(keep, ni)
			}
		}
		live = append(keep, merged)
	}
	// Depth-first walk assigns leaf depths as code lengths.
	type frame struct{ node, depth int }
	stack := []frame{{live[0], 0}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[fr.node]
		if nd.left < 0 {
			d := fr.depth
			if d == 0 {
				d = 1
			}
			lengths[nd.sym] = uint8(d) //stlint:ignore trunccast depth is bounded by the alphabet size (≤ 33)
			continue
		}
		stack = append(stack, frame{nd.left, fr.depth + 1}, frame{nd.right, fr.depth + 1})
	}
	return lengths
}

// huffCodes writes into codes (one entry per symbol) the canonical codes
// for a set of code lengths: symbols in (length, symbol) order receive
// consecutive code values, shifted left at each length increase. Entries
// are valid only where lengths[sym] > 0.
func huffCodes(lengths []uint8, codes []uint64) {
	var code uint64
	var prev, maxLen uint8
	for _, l := range lengths {
		maxLen = max(maxLen, l)
	}
	for ln := uint8(1); ln <= maxLen; ln++ {
		for s, l := range lengths {
			if l == ln {
				code <<= ln - prev
				codes[s] = code
				code++
				prev = ln
			}
		}
	}
}

// huffDecoder decodes canonical Huffman symbols bit by bit using the
// first-code-per-length tables.
type huffDecoder struct {
	maxLen   uint8
	first    [maxHuffLen + 1]uint64 // first canonical code of each length
	count    [maxHuffLen + 1]int    // symbols of each length
	symBase  [maxHuffLen + 1]int    // offset of each length's first symbol in syms
	syms     []int                  // symbols sorted by (length, symbol)
	nonEmpty bool
}

// newHuffDecoder validates lengths (bounds and the Kraft inequality) and
// builds the canonical decoding tables. Forged tables whose lengths
// overcommit the code space are rejected here, so Decode never indexes out
// of range.
func newHuffDecoder(lengths []uint8) (*huffDecoder, error) {
	d := &huffDecoder{}
	var kraft uint64 // in units of 2^-maxHuffLen
	for s, ln := range lengths {
		if ln == 0 {
			continue
		}
		if ln > maxHuffLen {
			return nil, fmt.Errorf("entropy: huffman code length %d exceeds cap %d", ln, maxHuffLen)
		}
		kraft += uint64(1) << (maxHuffLen - ln)
		if kraft > uint64(1)<<maxHuffLen {
			return nil, fmt.Errorf("entropy: huffman table overcommits code space (symbol %d)", s)
		}
		d.count[ln]++
		if ln > d.maxLen {
			d.maxLen = ln
		}
		d.nonEmpty = true
	}
	if !d.nonEmpty {
		return d, nil
	}
	d.syms = make([]int, 0, len(lengths))
	var code uint64
	for ln := uint8(1); ln <= d.maxLen; ln++ {
		code <<= 1
		d.first[ln] = code
		d.symBase[ln] = len(d.syms)
		for s, l := range lengths {
			if l == ln {
				d.syms = append(d.syms, s)
			}
		}
		code += uint64(d.count[ln]) //stlint:ignore trunccast canonical code counts are non-negative
	}
	return d, nil
}

// Decode reads one symbol from r.
func (d *huffDecoder) Decode(r *BitReader) (int, error) {
	if !d.nonEmpty {
		return 0, fmt.Errorf("entropy: decode with empty huffman table")
	}
	var code uint64
	for ln := uint8(1); ln <= d.maxLen; ln++ {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint64(bit)
		if d.count[ln] > 0 && code >= d.first[ln] && code-d.first[ln] < uint64(d.count[ln]) {
			return d.syms[d.symBase[ln]+int(code-d.first[ln])], nil
		}
	}
	return 0, fmt.Errorf("entropy: invalid huffman code in stream")
}
