package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/obs"
	"stwave/internal/par"
	"stwave/internal/scratch"
	"stwave/internal/transform"
)

// All selects every level group (Query.MaxLevel) or every time slice
// (Query.Slice).
const All = -1

// Query names the part of a compressed window a reconstruction returns.
// A full decode, a levels=K preview and a single time slice are points of
// one space, and Reconstruct answers all of them with one body.
type Query struct {
	// MaxLevel bounds the decode to level groups 0..MaxLevel: the result
	// has CoarseDims(Dims, SpatialLevels-MaxLevel) extents and no finer
	// block is decoded. All means full resolution; anything below
	// SpatialLevels needs a progressive window.
	MaxLevel int
	// Slice selects one time slice of the window; All returns every slice.
	Slice int
}

// Reconstruct decodes the part of cw that q names at precision F. The
// temporal transform is always fully inverted (it needs every slice), the
// spatial inverse runs only on the slices returned, and levels left
// un-inverted are rescaled to the coarse preview's amplitude. Windows of
// either stored precision decode at either F (blocks widen float32 values
// exactly); F matching cw.Precision is the bit-faithful reconstruction.
//
// A whole-window result owns its samples. A one-slice result holds that
// slice alone, with its stored time: the window is decoded into a pooled
// slab, so the answer does not pin the other slices. Every result is
// bit-equal to the matching slice of the whole-window result at the same
// MaxLevel. Groups the window no longer carries (shed, or not read)
// reconstruct as zero detail.
func Reconstruct[F num.Float](ctx context.Context, cw *CompressedWindow, q Query) (*grid.WindowOf[F], error) {
	t, L := cw.NumSlices(), cw.SpatialLevels
	maxLevel := q.MaxLevel
	if maxLevel == All {
		maxLevel = L
	}
	switch {
	case t == 0:
		return nil, fmt.Errorf("core: empty compressed window")
	case !cw.Dims.Valid():
		return nil, fmt.Errorf("core: invalid dims %v", cw.Dims)
	case maxLevel < 0 || maxLevel > L:
		return nil, fmt.Errorf("core: level %d out of range [0, %d]", q.MaxLevel, L)
	case maxLevel < L && !cw.Progressive():
		return nil, ErrNotProgressive
	case q.Slice != All && (q.Slice < 0 || q.Slice >= t):
		return nil, fmt.Errorf("core: slice %d out of range [0,%d)", q.Slice, t)
	}
	// Shapes are checked before any dims-derived buffer is sized.
	if err := validateBlocks(cw); err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(ctx, "core.decompress")
	defer sp.End()
	sp.SetAttr("max_level", strconv.Itoa(q.MaxLevel))
	sp.SetAttr("slice", strconv.Itoa(q.Slice))

	sub := transform.CoarseDims(cw.Dims, L-maxLevel)
	s := sub.Len()
	workers := par.Workers(cw.Opts.Workers)
	var slab []F
	if q.Slice == All {
		slab = make([]F, t*s)
	} else {
		slab = scratch.FloatsOf[F](t * s)
		defer scratch.PutFloatsOf(slab)
		clear(slab) // the scatter writes only the level groups present
	}
	fields := make([]grid.Field3DOf[F], t)
	slices := make([]*grid.Field3DOf[F], t)
	times := make([]float64, t)
	for i := range fields {
		fields[i] = grid.Field3DOf[F]{Dims: sub, Data: slab[i*s : (i+1)*s : (i+1)*s]}
		slices[i] = &fields[i]
		times[i] = cw.timeAt(i)
	}
	w := &grid.WindowOf[F]{Dims: sub, Slices: slices, Times: times}

	_, spDec := obs.Start(ctx, "core.decode_blocks")
	start := time.Now()
	err := decodeInto(cw, slices, maxLevel, workers)
	spDec.End()
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	rawBytes := int64(t*s) * int64(num.SampleBytes[F]())
	observeThroughput("compress.decode_mb_per_s", rawBytes, elapsed)
	observeThroughput("codec.decode_mb_per_s."+cw.Codec().Name(), rawBytes, elapsed)

	out := slices
	if q.Slice != All {
		out = slices[q.Slice : q.Slice+1]
	}
	spec := transform.Spec{
		SpatialKernel:  cw.Opts.SpatialKernel,
		SpatialLevels:  maxLevel,
		TemporalKernel: cw.Opts.TemporalKernel,
		TemporalLevels: cw.TemporalLevels,
		Workers:        workers,
	}
	if err := transform.InverseSlicesCtx(ctx, w, spec, out); err != nil {
		return nil, fmt.Errorf("core: inverse transform: %w", err)
	}
	approxRescale(out, L-maxLevel, workers)
	if maxLevel < L {
		obs.Default().Counter("core.partial_decodes_total").Add(1)
	}
	obs.Default().Counter("core.decompress_windows_total").Add(1)
	if q.Slice == All {
		return w, nil
	}
	return &grid.WindowOf[F]{Dims: sub, Slices: []*grid.Field3DOf[F]{out[0].Clone()}, Times: times[q.Slice : q.Slice+1]}, nil
}

// validateBlocks checks every block's coefficient count against the
// window's geometry in either layout.
func validateBlocks(cw *CompressedWindow) error {
	if cw.Progressive() {
		return validateLevelBlocks(cw)
	}
	for i, b := range cw.Blocks {
		if b.Total() != cw.Dims.Len() {
			return fmt.Errorf("core: block %d has %d coefficients, grid needs %d", i, b.Total(), cw.Dims.Len())
		}
	}
	return nil
}

// Decompress reconstructs the whole window at float64. The result is
// independent of cw.
func Decompress(cw *CompressedWindow) (*grid.Window, error) {
	return DecompressCtx(context.Background(), cw)
}

// DecompressCtx is Decompress with context propagation; it is
// Reconstruct[float64] of the whole window.
func DecompressCtx(ctx context.Context, cw *CompressedWindow) (*grid.Window, error) {
	return Reconstruct[float64](ctx, cw, Query{MaxLevel: All, Slice: All})
}

// Decompress32 is Reconstruct[float32] of the whole window: the
// bit-faithful reconstruction of a window compressed by Compress[float32].
func Decompress32(cw *CompressedWindow) (*grid.Window32, error) {
	return Reconstruct[float32](context.Background(), cw, Query{MaxLevel: All, Slice: All})
}

// DecompressLevels32Ctx is Reconstruct[float32] of every slice at level
// groups 0..maxLevel of a progressive window.
func DecompressLevels32Ctx(ctx context.Context, cw *CompressedWindow, maxLevel int) (*grid.Window32, error) {
	return Reconstruct[float32](ctx, cw, Query{MaxLevel: maxLevel, Slice: All})
}
