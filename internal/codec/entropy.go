package codec

import (
	"fmt"
	"io"

	"stwave/internal/compress"
	"stwave/internal/entropy"
	"stwave/internal/par"
)

// entropyCodec is the quantize → entropy-code backend from
// internal/entropy. Params tune only the encode side; decoding is fully
// self-describing (quantizer step, Huffman table, and chunk layout all
// live in the block headers), so the registry's default instance reads
// blocks produced with any Params.
type entropyCodec struct {
	params entropy.Params
}

// Entropy returns the entropy backend (format ID 3) with default
// parameters: 16 magnitude bits and a per-block adaptive step.
func Entropy() Codec { return entropyCodec{params: entropy.DefaultParams()} }

// EntropyWith returns an entropy backend that encodes with the given
// parameters. It validates them now, so a misconfigured CLI flag fails at
// startup rather than on the first window.
func EntropyWith(p entropy.Params) (Codec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return entropyCodec{params: p}, nil
}

func (entropyCodec) ID() ID       { return IDEntropy }
func (entropyCodec) Name() string { return "entropy" }

func (c entropyCodec) EncodeSlices(datas [][]float64, workers int) ([]Block, error) {
	return encodeDense(c, datas, workers)
}

func (c entropyCodec) EncodeSlices32(datas [][]float32, workers int) ([]Block, error) {
	return encodeDense(c, datas, workers)
}

func (c entropyCodec) EncodeSurvivors(survs []compress.Survivors, workers int) ([]Block, error) {
	if err := compress.CheckSurvivors(survs); err != nil {
		return nil, err
	}
	blocks := make([]Block, len(survs))
	errs := make([]error, len(survs))
	// Slices encode concurrently and each slice's chunks encode
	// concurrently below that; Split keeps the product within the budget.
	outer, inner := par.Split(workers, len(survs))
	par.For(len(survs), outer, 1, func(start, end int) {
		for i := start; i < end; i++ {
			s := survs[i]
			b, err := entropy.EncodeSurvivors(s.Total, s.Idx, s.Val, c.params, inner)
			blocks[i], errs[i] = b, err
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("codec: encoding slice %d: %w", i, err)
		}
	}
	return blocks, nil
}

func (c entropyCodec) WriteBlock(w io.Writer, b Block) (int64, error) {
	eb, ok := b.(*entropy.Block)
	if !ok {
		return 0, fmt.Errorf("codec: entropy cannot write a %T block", b)
	}
	return eb.WriteTo(w)
}

func (c entropyCodec) ReadBlock(r io.Reader) (Block, error) {
	return entropy.Read(r)
}
