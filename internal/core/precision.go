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
// bodies below it. Encoding needs no dispatch at all (survivors carry
// float64 values at either precision); only codec.Block's decode needs a
// per-precision method name (interface methods cannot be generic), which
// decodeBlockIntoOf picks with one type switch per block, never per sample.

// precisionOf maps the type parameter to the header enum.
func precisionOf[F num.Float]() Precision {
	if num.Is32[F]() {
		return Float32
	}
	return Float64
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

// selectOf applies the ratio budget at precision F and returns the
// survivors per slice: per-slice budgets for 3D (and for the
// PerSliceBudget ablation), one joint budget over the whole window for 4D.
// The coefficients are only read.
func selectOf[F num.Float](o Options, datas [][]F, workers int) ([]compress.Survivors, error) {
	if o.Mode == Spatial3D || o.PerSliceBudget {
		if len(datas) == 0 {
			return nil, nil
		}
		keep, err := compress.KeepCount(len(datas[0]), o.Ratio)
		if err != nil {
			return nil, err
		}
		survs := make([]compress.Survivors, len(datas))
		par.For(len(datas), workers, 1, func(start, end int) {
			for i := start; i < end; i++ {
				survs[i] = compress.SelectSurvivors(datas[i:i+1], keep, 1)[0]
			}
		})
		return survs, nil
	}
	total := 0
	for _, d := range datas {
		total += len(d)
	}
	keep, err := compress.KeepCount(total, o.Ratio)
	if err != nil {
		return nil, err
	}
	return compress.SelectSurvivors(datas, keep, workers), nil
}
