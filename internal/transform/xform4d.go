package transform

import (
	"context"
	"fmt"
	"time"

	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/obs"
	"stwave/internal/wavelet"
)

// temporalLanes is the tile width (in grid points) of the blocked
// temporal pass: each tile transposes the time series of temporalLanes
// neighbouring grid points into a contiguous (T × lanes) slab — one bulk
// copy per slice instead of one strided load per point per slice — and
// transforms all of them per gather with the blocked lifting kernel.
const temporalLanes = 128

// LevelsTemporal returns the Equation 2 level budget for a temporal window
// of T slices under kernel k. With window 10, CDF 9/7 permits 1 level and
// CDF 5/3 permits 2, as the paper discusses in Section IV-B.
func LevelsTemporal(k wavelet.Kernel, windowSize int) int {
	return wavelet.MaxLevels(k, windowSize)
}

// ForwardTemporal applies a multi-level 1D wavelet transform along the time
// axis at every grid point of the window, in place. levels must not exceed
// LevelsTemporal(k, w.Len()).
func ForwardTemporal[F num.Float](w *grid.WindowOf[F], k wavelet.Kernel, levels, workers int) error {
	return temporalPass(w, k, levels, workers, false)
}

// InverseTemporal undoes ForwardTemporal.
func InverseTemporal[F num.Float](w *grid.WindowOf[F], k wavelet.Kernel, levels, workers int) error {
	return temporalPass(w, k, levels, workers, true)
}

func temporalPass[F num.Float](w *grid.WindowOf[F], k wavelet.Kernel, levels, workers int, inverse bool) error {
	t := w.Len()
	if levels < 0 {
		return fmt.Errorf("transform: negative temporal level count %d", levels)
	}
	if max := LevelsTemporal(k, t); levels > max {
		return fmt.Errorf("transform: %d temporal levels exceeds maximum %d for kernel %v with window %d", levels, max, k, t)
	}
	if levels == 0 || t < 2 {
		return nil
	}
	ts := tiles[F]{slices: w.Slices, width: w.Dims.Len(), lanes: temporalLanes, sweeps: 1}
	ts.run(k, t, levels, workers, inverse)
	return nil
}

// Spec describes a full spatiotemporal transform configuration.
type Spec struct {
	// SpatialKernel and SpatialLevels configure the per-slice 3D step.
	// SpatialLevels < 0 means "maximum allowed by Equation 2".
	SpatialKernel wavelet.Kernel
	SpatialLevels int
	// TemporalKernel and TemporalLevels configure the in-time step.
	// TemporalLevels < 0 means "maximum allowed by Equation 2".
	// TemporalLevels == 0 disables the temporal step (pure 3D transform).
	TemporalKernel wavelet.Kernel
	TemporalLevels int
	// Workers bounds parallelism; < 1 uses GOMAXPROCS. The 4D entry points
	// own the budget: it is resolved once and split between window-level
	// slice parallelism and the per-slice passes, never both in full.
	Workers int
}

// resolve fills in the "maximum" placeholders for a concrete window.
func (s Spec) resolve(d grid.Dims, windowLen int) (spatial, temporal int) {
	spatial = s.SpatialLevels
	if spatial < 0 {
		spatial = Levels3D(s.SpatialKernel, d)
	}
	temporal = s.TemporalLevels
	if temporal < 0 {
		temporal = LevelsTemporal(s.TemporalKernel, windowLen)
	}
	return spatial, temporal
}

// stageDone records one per-window transform-stage timing into the
// process-wide registry, keyed by stage and kernel — the split Table I
// style cost studies need ("transform.forward_3d_seconds.cdf97", ...).
func stageDone(stage string, k wavelet.Kernel, start time.Time) {
	obs.Default().Histogram("transform." + stage + "_seconds." + k.Slug()).ObserveSince(start)
}

// Forward4D runs the paper's two-step spatiotemporal transform on the window
// in place: first the 3D non-standard decomposition on every slice, then the
// temporal transform at every grid point.
func Forward4D[F num.Float](w *grid.WindowOf[F], s Spec) error {
	return Forward4DCtx(context.Background(), w, s)
}

// Forward4DCtx is Forward4D with context propagation for tracing spans:
// each stage (per-slice 3D, then temporal) records a span under any trace
// carried by ctx and a per-window duration in the metrics registry. The
// 3D stage parallelizes across slices, handing each slice the inner share
// of the worker budget (par.Split), so the machine is never oversubscribed.
func Forward4DCtx[F num.Float](ctx context.Context, w *grid.WindowOf[F], s Spec) error {
	spatial, temporal := s.resolve(w.Dims, w.Len())
	_, sp3 := obs.Start(ctx, "xform.forward_3d")
	sp3.SetAttr("kernel", s.SpatialKernel.String())
	start := time.Now()
	err := forEachSlice(w.Slices, s.Workers, func(i int, f *grid.Field3DOf[F], inner int) error {
		if err := Forward3D(f, s.SpatialKernel, spatial, inner); err != nil {
			return fmt.Errorf("transform: slice %d: %w", i, err)
		}
		return nil
	})
	sp3.End()
	if err != nil {
		return err
	}
	stageDone("forward_3d", s.SpatialKernel, start)

	_, spT := obs.Start(ctx, "xform.forward_temporal")
	spT.SetAttr("kernel", s.TemporalKernel.String())
	start = time.Now()
	err = ForwardTemporal(w, s.TemporalKernel, temporal, s.Workers)
	if err == nil {
		stageDone("forward_temporal", s.TemporalKernel, start)
	}
	spT.End()
	return err
}

// Inverse4D undoes Forward4D: temporal inverse first, then per-slice 3D
// inverse — the order the paper notes costs random access to single slices.
func Inverse4D[F num.Float](w *grid.WindowOf[F], s Spec) error {
	return Inverse4DCtx(context.Background(), w, s)
}

// Inverse4DCtx is Inverse4D with context propagation for tracing spans
// and per-stage registry timings, mirroring Forward4DCtx (including its
// slice-parallel 3D stage and worker-budget split).
func Inverse4DCtx[F num.Float](ctx context.Context, w *grid.WindowOf[F], s Spec) error {
	return InverseSlicesCtx(ctx, w, s, w.Slices)
}

// InverseSlicesCtx is Inverse4DCtx returning only the slices in out (a
// subset of w.Slices) to sample space: the temporal inverse needs every
// slice, but the spatial inverse runs on out alone and leaves the other
// slices as spatial coefficients.
func InverseSlicesCtx[F num.Float](ctx context.Context, w *grid.WindowOf[F], s Spec, out []*grid.Field3DOf[F]) error {
	spatial, temporal := s.resolve(w.Dims, w.Len())
	_, spT := obs.Start(ctx, "xform.inverse_temporal")
	spT.SetAttr("kernel", s.TemporalKernel.String())
	start := time.Now()
	if err := InverseTemporal(w, s.TemporalKernel, temporal, s.Workers); err != nil {
		spT.End()
		return err
	}
	stageDone("inverse_temporal", s.TemporalKernel, start)
	spT.End()

	_, sp3 := obs.Start(ctx, "xform.inverse_3d")
	sp3.SetAttr("kernel", s.SpatialKernel.String())
	start = time.Now()
	err := forEachSlice(out, s.Workers, func(i int, f *grid.Field3DOf[F], inner int) error {
		if err := Inverse3D(f, s.SpatialKernel, spatial, inner); err != nil {
			return fmt.Errorf("transform: slice %d: %w", i, err)
		}
		return nil
	})
	sp3.End()
	if err != nil {
		return err
	}
	stageDone("inverse_3d", s.SpatialKernel, start)
	return nil
}
