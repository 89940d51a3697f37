package server

import (
	"context"
	"encoding/binary"
	"math"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/render"
	"stwave/internal/transform"
	"stwave/internal/wavelet"
)

// window is a reconstructed window at its native container precision —
// the cache's value. Float32 windows stay float32, so they cost half the
// budget and the cache holds twice the working set. Windows are shared
// between requests: treat them as read-only.
type window interface {
	// bytes is the retained size of the samples.
	bytes() int64
	// slice returns local slice i and its stored simulation time.
	slice(i int) (view, float64)
}

// view is one reconstructed time slice at its native container
// precision. Handlers crop, coarsen, render and serialize it natively, so
// float32 containers never pay a widen-then-narrow round trip on the hot
// path. Views share storage with the window cache: treat them as
// read-only.
type view interface {
	dims() grid.Dims
	subVolume(x0, y0, z0, nx, ny, nz int) (view, error)
	// coarse downsamples by the given number of wavelet levels.
	coarse(k wavelet.Kernel, levels, workers int) (view, error)
	sliceImage(k int) (*render.Image, error)
	mipImage(axis render.MIPAxis) (*render.Image, error)
	// raw is the wire encoding: little-endian float32 samples, x fastest.
	raw() []byte
	// samples is the sample slice, for JSON encoding.
	samples() any
}

// reconstruct answers q at cw's native precision. It is the server's one
// precision decision: float32 windows reconstruct through the 4-byte
// pipeline.
func reconstruct(ctx context.Context, cw *core.CompressedWindow, q core.Query) (window, error) {
	if cw.Precision == core.Float32 {
		return reconstructOf[float32](ctx, cw, q)
	}
	return reconstructOf[float64](ctx, cw, q)
}

func reconstructOf[F num.Float](ctx context.Context, cw *core.CompressedWindow, q core.Query) (window, error) {
	w, err := core.Reconstruct[F](ctx, cw, q)
	if err != nil {
		return nil, err
	}
	return newWindow(w), nil
}

// windowOf is a window at precision F.
type windowOf[F num.Float] struct{ *grid.WindowOf[F] }

func newWindow[F num.Float](w *grid.WindowOf[F]) window { return windowOf[F]{w} }

func (w windowOf[F]) bytes() int64 {
	return int64(w.TotalSamples()) * int64(num.SampleBytes[F]())
}

func (w windowOf[F]) slice(i int) (view, float64) {
	return viewOf[F]{w.Slices[i]}, w.Times[i]
}

// viewOf is a view at precision F.
type viewOf[F num.Float] struct{ *grid.Field3DOf[F] }

func (v viewOf[F]) dims() grid.Dims { return v.Dims }

func (v viewOf[F]) subVolume(x0, y0, z0, nx, ny, nz int) (view, error) {
	sub, err := v.SubVolume(x0, y0, z0, nx, ny, nz)
	return viewOf[F]{sub}, err
}

func (v viewOf[F]) coarse(k wavelet.Kernel, levels, workers int) (view, error) {
	c, err := transform.CoarseApproximation(v.Field3DOf, k, levels, workers)
	return viewOf[F]{c}, err
}

func (v viewOf[F]) sliceImage(k int) (*render.Image, error) { return render.SliceXY(v.Field3DOf, k) }

func (v viewOf[F]) mipImage(axis render.MIPAxis) (*render.Image, error) {
	return render.MIP(v.Field3DOf, axis)
}

func (v viewOf[F]) raw() []byte {
	buf := make([]byte, len(v.Data)*4)
	for i, s := range v.Data {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(float32(s)))
	}
	return buf
}

func (v viewOf[F]) samples() any { return v.Data }
