// Package ingest is the one path from a stream of time slices to a
// container: it wires a live simulation (internal/sim), a series of raw
// files or an in-memory window into a bounded-memory compress-and-append
// loop over a container journal, the workflow the paper's Figure 1 sketch
// assumes but never has to operate — a solver that produces slices
// whether or not the storage tier can keep up. The engine accumulates
// slices into windows built from recycled scratch buffers, overlaps their
// compression in an ordered stage (workers compress, one goroutine
// journals in submission order), gates admission on a byte budget, and
// when storage falls behind applies a configured backpressure policy:
// stall the solver, degrade to a coarser target ratio, or shed whole
// windows behind a journaled gap marker so the timeline never shifts.
//
// Both sample precisions stream through the same engine: the float64 path
// is the reference pipeline, and the float32 path (SourceOf[float32],
// NewEngineOf[float32]) keeps single-precision sources at 4 bytes per sample from
// the solver fill through the durable container bytes — the window
// buffers, the staging tier, and the compressed payload never widen.
package ingest

import (
	"fmt"
	"math"

	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/sim/cloverleaf"
	"stwave/internal/sim/ghost"
	"stwave/internal/sim/synth"
	"stwave/internal/sim/tornado"
)

// SourceOf produces one scalar field slice per simulation step at sample
// precision F. The engine owns dst and recycles it between windows, so
// implementations must fill it in place rather than retain it.
type SourceOf[F num.Float] interface {
	// Dims is the slice geometry every Next fill will have.
	Dims() grid.Dims
	// Next advances the simulation one step, fills dst with the tracked
	// field, and returns the slice's simulation time.
	Next(dst *grid.Field3DOf[F]) (float64, error)
	// Skip advances one step without sampling — the shed policy drops a
	// window's worth of output but the simulation must keep its own state
	// marching. Returns the skipped slice's simulation time.
	Skip() (float64, error)
}

// source is the one SourceOf implementation: a solver, an analytic field
// or a recorded series seen as a clock that advances one step and returns
// the new slice's simulation time, and a fill that samples the tracked
// field at that step. Only fill touches dst, so Skip keeps the simulation
// marching without sampling.
type source[F num.Float] struct {
	dims    grid.Dims
	advance func() (float64, error)
	fill    func(dst *grid.Field3DOf[F], t float64) error
}

func (s *source[F]) Dims() grid.Dims { return s.dims }

func (s *source[F]) Next(dst *grid.Field3DOf[F]) (float64, error) {
	t, err := s.advance()
	if err != nil {
		return t, err
	}
	return t, s.fill(dst, t)
}

func (s *source[F]) Skip() (float64, error) { return s.advance() }

// fixedStep is the clock of the analytic sources: slice i is at time
// i·dt. dt must be finite and positive — a NaN or infinite step would
// journal non-finite times and samples.
func fixedStep(dt float64) (func() (float64, error), error) {
	if math.IsNaN(dt) || math.IsInf(dt, 0) || dt <= 0 {
		return nil, fmt.Errorf("ingest: step size %g must be finite and positive", dt)
	}
	step := 0
	return func() (float64, error) {
		t := float64(step) * dt
		step++
		return t, nil
	}, nil
}

// replay builds the source of a recorded series of n slices: slice i is
// at time at(i), and fill(dst, i) samples it. Stepping past the last
// slice is an error.
func replay[F num.Float](dims grid.Dims, n int, at func(int) float64, fill func(dst *grid.Field3DOf[F], i int) error) *source[F] {
	i := -1
	return &source[F]{
		dims: dims,
		advance: func() (float64, error) {
			if i+1 >= n {
				return 0, fmt.Errorf("ingest: source holds only %d slices", n)
			}
			i++
			return at(i), nil
		},
		fill: func(dst *grid.Field3DOf[F], _ float64) error { return fill(dst, i) },
	}
}

// NewWindowSourceOf replays the slices of an in-memory window at their
// times, copying each into the engine's buffer; w is only read.
func NewWindowSourceOf[F num.Float](w *grid.WindowOf[F]) SourceOf[F] {
	return replay(w.Dims, w.Len(), func(i int) float64 { return w.Times[i] },
		func(dst *grid.Field3DOf[F], i int) error {
			copy(dst.Data, w.Slices[i].Data)
			return nil
		})
}

// NewRawFileSourceOf replays float32 raw volumes of dims, one file per
// slice, slice i at time i. Every file is checked against dims here, so a
// caller that builds the source before creating its output never
// truncates a container for inputs it cannot read.
func NewRawFileSourceOf[F num.Float](paths []string, dims grid.Dims) (SourceOf[F], error) {
	if !dims.Valid() {
		return nil, fmt.Errorf("ingest: invalid dims %v", dims)
	}
	for _, p := range paths {
		if err := grid.CheckRawFile(p, dims); err != nil {
			return nil, err
		}
	}
	return replay(dims, len(paths), func(i int) float64 { return float64(i) },
		func(dst *grid.Field3DOf[F], i int) error {
			if err := grid.LoadRawFileInto(paths[i], dst); err != nil {
				return fmt.Errorf("loading %s: %w", paths[i], err)
			}
			return nil
		}), nil
}

// cube is the geometry of an n³ solver grid.
func cube(n int) grid.Dims { return grid.Dims{Nx: n, Ny: n, Nz: n} }

// NewGhostSourceOf adapts a ghost solver (which must have a scalar
// attached) as a streaming source of its passive scalar at precision F.
func NewGhostSourceOf[F num.Float](s *ghost.Solver) (SourceOf[F], error) {
	if !s.HasScalar() {
		return nil, fmt.Errorf("ingest: ghost solver has no scalar attached")
	}
	return &source[F]{
		dims:    cube(s.N()),
		advance: func() (float64, error) { s.Step(); return s.Time(), nil },
		fill:    func(dst *grid.Field3DOf[F], _ float64) error { return ghost.ScalarInto(s, dst) },
	}, nil
}

// NewCloverleafSourceOf adapts a cloverleaf solver as a streaming source
// of its density field at precision F.
func NewCloverleafSourceOf[F num.Float](s *cloverleaf.Solver) SourceOf[F] {
	return &source[F]{
		dims:    cube(s.N()),
		advance: func() (float64, error) { s.Step(); return s.Time(), nil },
		fill:    func(dst *grid.Field3DOf[F], _ float64) error { return cloverleaf.DensityInto(s, dst) },
	}
}

// NewTornadoSourceOf adapts the analytic tornado model as a streaming
// source of its cloud mixing ratio, stepping dt per slice at precision F.
func NewTornadoSourceOf[F num.Float](m *tornado.Model, dt float64) (SourceOf[F], error) {
	clock, err := fixedStep(dt)
	if err != nil {
		return nil, err
	}
	cfg := m.Config()
	return &source[F]{
		dims:    grid.Dims{Nx: cfg.Nx, Ny: cfg.Ny, Nz: cfg.Nz},
		advance: clock,
		fill: func(dst *grid.Field3DOf[F], t float64) error {
			return tornado.CloudMixingRatioInto(m, dst, t)
		},
	}, nil
}

// NewSynthSourceOf adapts a synthetic kinematic field as a streaming
// source sampling its scalar on dims at interval dt at precision F.
func NewSynthSourceOf[F num.Float](f *synth.Field, dims grid.Dims, dt float64) (SourceOf[F], error) {
	if !dims.Valid() {
		return nil, fmt.Errorf("ingest: invalid dims %v", dims)
	}
	clock, err := fixedStep(dt)
	if err != nil {
		return nil, err
	}
	return &source[F]{
		dims:    dims,
		advance: clock,
		fill: func(dst *grid.Field3DOf[F], t float64) error {
			return synth.SampleScalarIntoOf(f, dst, t)
		},
	}, nil
}
