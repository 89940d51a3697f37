package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
)

// Entropy stage: the paper's accounting stops at "retained coefficients x 4
// bytes" and cites SPECK/SPIHT/EBCOT for real coding. The cheapest honest
// improvement available from the standard library is DEFLATE over the
// sparse block bytes — the significance bitmap is highly compressible (long
// zero runs at high ratios) and float32 mantissa bytes less so. These
// helpers let the harness report a third size column: ideal, raw-encoded,
// and deflated.

// WriteDeflated serializes the block through DEFLATE, framed with the
// compressed byte length so multiple blocks can share one stream. Returns
// the total bytes written (8-byte frame header + compressed payload).
func (b *SparseBlock) WriteDeflated(w io.Writer) (int64, error) {
	var raw bytes.Buffer
	if _, err := b.WriteTo(&raw); err != nil {
		return 0, err
	}
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestCompression)
	if err != nil {
		return 0, err
	}
	if _, err := fw.Write(raw.Bytes()); err != nil {
		return 0, err
	}
	if err := fw.Close(); err != nil {
		return 0, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(comp.Len())) //stlint:ignore trunccast bytes.Buffer.Len is non-negative by construction
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := w.Write(comp.Bytes())
	return 8 + int64(n), err
}

// ReadDeflatedSparseBlock reads one framed DEFLATE block written by
// WriteDeflated. It consumes exactly the frame's bytes from r.
func ReadDeflatedSparseBlock(r io.Reader) (*SparseBlock, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("compress: reading deflate frame header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > 1<<40 {
		return nil, fmt.Errorf("compress: implausible deflate frame size %d", n)
	}
	// Grow with the bytes that actually arrive: n is untrusted, and a
	// truncated stream must not cost an n-byte allocation up front.
	comp, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && uint64(len(comp)) < n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("compress: reading deflate frame: %w", err)
	}
	fr := flate.NewReader(bytes.NewReader(comp))
	defer fr.Close()
	raw, err := io.ReadAll(fr)
	if err != nil {
		return nil, fmt.Errorf("compress: inflating block: %w", err)
	}
	return ReadSparseBlock(bytes.NewReader(raw))
}

// DeflatedSizeBytes returns the framed DEFLATE size of the block without
// keeping the bytes.
func (b *SparseBlock) DeflatedSizeBytes() (int64, error) {
	var counter countingWriter
	return b.WriteDeflated(&counter)
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
