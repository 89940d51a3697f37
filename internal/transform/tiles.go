package transform

import (
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/par"
	"stwave/internal/scratch"
	"stwave/internal/wavelet"
)

// tiles addresses the lines of one blocked pass. The pass makes sweeps
// sweeps across width neighbouring lines, each sweep cut into tiles of at
// most lanes lines. Row r of a tile — sample r of each of its lines —
// starts at the tile's base offset plus r*stride in data for a spatial
// pass, or at the base offset in slices[r] for the temporal pass.
type tiles[F num.Float] struct {
	data          []F
	slices        []*grid.Field3DOf[F]
	width, lanes  int
	sweeps, sweep int // sweep is the offset between sweeps
	stride        int
}

func (ts tiles[F]) across() int { return (ts.width + ts.lanes - 1) / ts.lanes }

// at returns tile t's base offset and line count.
func (ts tiles[F]) at(t int) (base, lanes int) {
	x0 := (t % ts.across()) * ts.lanes
	return (t/ts.across())*ts.sweep + x0, min(ts.lanes, ts.width-x0)
}

// row returns row r of the tile at base.
func (ts tiles[F]) row(base, lanes, r int) []F {
	if ts.slices != nil {
		return ts.slices[r].Data[base : base+lanes]
	}
	o := base + r*ts.stride
	return ts.data[o : o+lanes]
}

// run transforms every line of the pass, n samples long, through levels
// levels of kernel k. workers <= 1 runs on the calling goroutine and
// allocates nothing; the closure par.For needs would escape to the heap.
func (ts tiles[F]) run(k wavelet.Kernel, n, levels, workers int, inverse bool) {
	count := ts.across() * ts.sweeps
	if workers <= 1 {
		ts.runRange(k, n, levels, 0, count, inverse)
		return
	}
	par.For(count, workers, 1, func(start, end int) {
		ts.runRange(k, n, levels, start, end, inverse)
	})
}

// runRange gathers each tile of [start, end) into a slab, lifts it with
// the blocked kernel, and scatters it back. A tile whose rows already lie
// back to back in data is lifted where it lies, with no gather.
func (ts tiles[F]) runRange(k wavelet.Kernel, n, levels, start, end int, inverse bool) {
	slab := scratch.FloatsOf[F](n * ts.lanes)
	scr := scratch.FloatsOf[F](n * ts.lanes)
	for t := start; t < end; t++ {
		base, lanes := ts.at(t)
		src := slab[:n*lanes]
		if ts.slices == nil && ts.stride == lanes {
			src = ts.data[base : base+n*lanes]
		} else {
			for r := 0; r < n; r++ {
				copy(src[r*lanes:(r+1)*lanes], ts.row(base, lanes, r))
			}
		}
		// The pyramid ping-pongs between src and scr so no level pays a
		// full-size pre-copy. Forward: each level lifts the src prefix
		// into scr; deeper levels only overwrite the shrinking approx
		// prefix, so every level's detail rows survive in scr and the
		// scatter reads scr alone. Inverse: each level reconstructs into
		// scr and copies back so the next (longer) level sees
		// [approx | detail] contiguous in src; the outermost level
		// scatters straight from scr.
		if inverse {
			for l := levels - 1; l >= 0; l-- {
				ln := wavelet.ApproxLenAfter(n, l)
				wavelet.InverseStepBlockTo(k, src, scr, ln, lanes)
				if l > 0 {
					copy(src[:ln*lanes], scr[:ln*lanes])
				}
			}
		} else {
			for l := 0; l < levels; l++ {
				wavelet.ForwardStepBlockTo(k, src, scr, wavelet.ApproxLenAfter(n, l), lanes)
				if l+1 < levels {
					next := wavelet.ApproxLenAfter(n, l+1) * lanes
					copy(src[:next], scr[:next])
				}
			}
		}
		for r := 0; r < n; r++ {
			copy(ts.row(base, lanes, r), scr[r*lanes:(r+1)*lanes])
		}
	}
	scratch.PutFloatsOf(scr)
	scratch.PutFloatsOf(slab)
}
