package codec

import (
	"fmt"
	"io"

	"stwave/internal/compress"
)

// SparseBlock adapts *compress.SparseBlock to the Block interface (the
// underlying type predates it: Total is a field there and DecodeInto
// takes no worker count). It also forwards the ideal and deflated size
// accountings, so existing harness columns keep working through the
// interface.
type SparseBlock struct {
	*compress.SparseBlock
}

// WrapSparse adapts an existing sparse block to the Block interface.
func WrapSparse(b *compress.SparseBlock) SparseBlock { return SparseBlock{b} }

// Total returns the number of coefficients the block covers.
func (b SparseBlock) Total() int { return b.SparseBlock.Total }

// DecodeInto expands the block into out on up to workers goroutines.
func (b SparseBlock) DecodeInto(out []float64, workers int) error {
	return compress.DecodeInto(b.SparseBlock, out, workers)
}

// DecodeInto32 expands the block into a float32 slice, reproducing the
// stored float32 values bit-for-bit. It exists beside DecodeInto because
// interface methods cannot be generic.
func (b SparseBlock) DecodeInto32(out []float32, workers int) error {
	return compress.DecodeInto(b.SparseBlock, out, workers)
}

// sparseCodec is the original backend: significance bitmap + raw float32
// values, encoded from survivors by compress.EncodeSurvivorBlocks and
// decoded chunk-parallel by compress.DecodeInto.
type sparseCodec struct{}

// Sparse returns the sparse backend (format ID 1, the default).
func Sparse() Codec { return sparseCodec{} }

func (sparseCodec) ID() ID       { return IDSparse }
func (sparseCodec) Name() string { return "sparse" }

func (c sparseCodec) EncodeSlices(datas [][]float64, workers int) ([]Block, error) {
	return encodeDense(c, datas, workers)
}

func (c sparseCodec) EncodeSlices32(datas [][]float32, workers int) ([]Block, error) {
	return encodeDense(c, datas, workers)
}

func (sparseCodec) EncodeSurvivors(survs []compress.Survivors, workers int) ([]Block, error) {
	return encodeSparse(survs, workers)
}

func (sparseCodec) WriteBlock(w io.Writer, b Block) (int64, error) {
	sb, err := asSparse(b, "sparse")
	if err != nil {
		return 0, err
	}
	return sb.WriteTo(w)
}

func (sparseCodec) ReadBlock(r io.Reader) (Block, error) {
	sb, err := compress.ReadSparseBlock(r)
	if err != nil {
		return nil, err
	}
	return WrapSparse(sb), nil
}

// deflateCodec shares the sparse encoding but frames every block through
// DEFLATE on the wire. Block sizes still report the raw sparse encoding
// (EncodedSizeBytes is a property of the blocks, which are shared with
// the sparse backend); the on-disk savings show up in the written byte
// counts and in DeflatedSizeBytes.
type deflateCodec struct{}

// Deflate returns the DEFLATE-framed sparse backend (format ID 2).
func Deflate() Codec { return deflateCodec{} }

func (deflateCodec) ID() ID       { return IDDeflate }
func (deflateCodec) Name() string { return "deflate" }

func (c deflateCodec) EncodeSlices(datas [][]float64, workers int) ([]Block, error) {
	return encodeDense(c, datas, workers)
}

func (c deflateCodec) EncodeSlices32(datas [][]float32, workers int) ([]Block, error) {
	return encodeDense(c, datas, workers)
}

func (deflateCodec) EncodeSurvivors(survs []compress.Survivors, workers int) ([]Block, error) {
	return encodeSparse(survs, workers)
}

func (deflateCodec) WriteBlock(w io.Writer, b Block) (int64, error) {
	sb, err := asSparse(b, "deflate")
	if err != nil {
		return 0, err
	}
	return sb.WriteDeflated(w)
}

func (deflateCodec) ReadBlock(r io.Reader) (Block, error) {
	sb, err := compress.ReadDeflatedSparseBlock(r)
	if err != nil {
		return nil, err
	}
	return WrapSparse(sb), nil
}

// encodeSparse is the survivor encoder the sparse and deflate backends
// share: their blocks are identical, only the wire framing differs.
func encodeSparse(survs []compress.Survivors, workers int) ([]Block, error) {
	if err := compress.CheckSurvivors(survs); err != nil {
		return nil, err
	}
	sbs := compress.EncodeSurvivorBlocks(survs, workers)
	blocks := make([]Block, len(sbs))
	for i, sb := range sbs {
		blocks[i] = WrapSparse(sb)
	}
	return blocks, nil
}

func asSparse(b Block, codecName string) (*compress.SparseBlock, error) {
	sb, ok := b.(SparseBlock)
	if !ok {
		return nil, fmt.Errorf("codec: %s cannot write a %T block", codecName, b)
	}
	return sb.SparseBlock, nil
}
