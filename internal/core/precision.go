package core

import (
	"fmt"

	"stwave/internal/codec"
	"stwave/internal/compress"
	"stwave/internal/num"
	"stwave/internal/par"
)

// Precision dispatch. The compress/decompress orchestration is written
// once, generically over num.Float, and so are the threshold and codec
// bodies below it. Only the codec.Codec and codec.Block interfaces need a
// per-precision method name (interface methods cannot be generic); the
// helpers here pick it with one type switch per window, never per sample.

// precisionOf maps the type parameter to the header enum.
func precisionOf[F num.Float]() Precision {
	if num.Is32[F]() {
		return Float32
	}
	return Float64
}

// encodeSlicesOf routes to the codec's native encode path for F.
func encodeSlicesOf[F num.Float](cdc codec.Codec, datas [][]F, workers int) ([]codec.Block, error) {
	switch d := any(datas).(type) {
	case [][]float64:
		return cdc.EncodeSlices(d, workers)
	case [][]float32:
		return cdc.EncodeSlices32(d, workers)
	}
	return nil, fmt.Errorf("core: unsupported sample type %T", datas)
}

// decodeBlockIntoOf routes to the block's native decode path for F.
func decodeBlockIntoOf[F num.Float](b codec.Block, out []F, workers int) error {
	switch o := any(out).(type) {
	case []float64:
		return b.DecodeInto(o, workers)
	case []float32:
		return b.DecodeInto32(o, workers)
	}
	return fmt.Errorf("core: unsupported sample type %T", out)
}

// thresholdOf applies the ratio budget at precision F: per-slice for 3D
// (and for the PerSliceBudget ablation), jointly over the whole window for
// 4D — the generic body of Compressor.threshold.
func thresholdOf[F num.Float](o Options, datas [][]F, workers int) error {
	if o.Mode == Spatial3D || o.PerSliceBudget {
		if len(datas) == 0 {
			return nil
		}
		keep, err := compress.KeepCount(len(datas[0]), o.Ratio)
		if err != nil {
			return err
		}
		par.For(len(datas), workers, 1, func(start, end int) {
			for i := start; i < end; i++ {
				compress.ThresholdSlices(datas[i:i+1], keep, 1)
			}
		})
		return nil
	}
	total := 0
	for _, d := range datas {
		total += len(d)
	}
	keep, err := compress.KeepCount(total, o.Ratio)
	if err != nil {
		return err
	}
	compress.ThresholdSlices(datas, keep, workers)
	return nil
}
