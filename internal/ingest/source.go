// Package ingest is the in-situ streaming path: it wires a live
// simulation (internal/sim) into a bounded-memory compress-and-append
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

// Source is the double-precision source interface — the reference path.
type Source = SourceOf[float64]

// Source32 is the single-precision source interface: slices are filled as
// float32 and stay float32 through compression.
type Source32 = SourceOf[float32]

// fillGhost dispatches a ghost scalar fill to the concrete precision.
func fillGhost[F num.Float](s *ghost.Solver, dst *grid.Field3DOf[F]) error {
	switch d := any(dst).(type) {
	case *grid.Field3D:
		return s.ScalarInto(d)
	case *grid.Field3D32:
		return s.ScalarInto32(d)
	}
	return fmt.Errorf("ingest: unsupported precision %T", dst)
}

// ghostSourceOf tracks the passive scalar of the pseudo-spectral solver.
type ghostSourceOf[F num.Float] struct{ s *ghost.Solver }

// NewGhostSourceOf adapts a ghost solver (which must have a scalar
// attached) as a streaming source at precision F.
func NewGhostSourceOf[F num.Float](s *ghost.Solver) (SourceOf[F], error) {
	if !s.HasScalar() {
		return nil, fmt.Errorf("ingest: ghost solver has no scalar attached")
	}
	return &ghostSourceOf[F]{s: s}, nil
}

// NewGhostSource adapts a ghost solver as a double-precision source.
func NewGhostSource(s *ghost.Solver) (Source, error) {
	return NewGhostSourceOf[float64](s)
}

func (g *ghostSourceOf[F]) Dims() grid.Dims {
	return grid.Dims{Nx: g.s.N(), Ny: g.s.N(), Nz: g.s.N()}
}

func (g *ghostSourceOf[F]) Next(dst *grid.Field3DOf[F]) (float64, error) {
	g.s.Step()
	return g.s.Time(), fillGhost(g.s, dst)
}

func (g *ghostSourceOf[F]) Skip() (float64, error) {
	g.s.Step()
	return g.s.Time(), nil
}

// fillCloverleaf dispatches a density fill to the concrete precision.
func fillCloverleaf[F num.Float](s *cloverleaf.Solver, dst *grid.Field3DOf[F]) error {
	switch d := any(dst).(type) {
	case *grid.Field3D:
		return s.DensityInto(d)
	case *grid.Field3D32:
		return s.DensityInto32(d)
	}
	return fmt.Errorf("ingest: unsupported precision %T", dst)
}

// cloverleafSourceOf tracks the density field of the Euler solver.
type cloverleafSourceOf[F num.Float] struct{ s *cloverleaf.Solver }

// NewCloverleafSourceOf adapts a cloverleaf solver as a streaming source
// at precision F.
func NewCloverleafSourceOf[F num.Float](s *cloverleaf.Solver) SourceOf[F] {
	return &cloverleafSourceOf[F]{s: s}
}

// NewCloverleafSource adapts a cloverleaf solver as a double-precision
// source.
func NewCloverleafSource(s *cloverleaf.Solver) Source {
	return NewCloverleafSourceOf[float64](s)
}

func (c *cloverleafSourceOf[F]) Dims() grid.Dims {
	return grid.Dims{Nx: c.s.N(), Ny: c.s.N(), Nz: c.s.N()}
}

func (c *cloverleafSourceOf[F]) Next(dst *grid.Field3DOf[F]) (float64, error) {
	c.s.Step()
	return c.s.Time(), fillCloverleaf(c.s, dst)
}

func (c *cloverleafSourceOf[F]) Skip() (float64, error) {
	c.s.Step()
	return c.s.Time(), nil
}

// fillTornado dispatches a cloud-water fill to the concrete precision.
func fillTornado[F num.Float](m *tornado.Model, dst *grid.Field3DOf[F], t float64) error {
	switch d := any(dst).(type) {
	case *grid.Field3D:
		return m.CloudMixingRatioInto(d, t)
	case *grid.Field3D32:
		return m.CloudMixingRatioInto32(d, t)
	}
	return fmt.Errorf("ingest: unsupported precision %T", dst)
}

// tornadoSourceOf samples the analytic supercell's cloud mixing ratio on a
// fixed step size.
type tornadoSourceOf[F num.Float] struct {
	m    *tornado.Model
	dt   float64
	step int
}

// NewTornadoSourceOf adapts the analytic tornado model as a streaming
// source stepping dt per slice at precision F.
func NewTornadoSourceOf[F num.Float](m *tornado.Model, dt float64) (SourceOf[F], error) {
	if dt <= 0 {
		return nil, fmt.Errorf("ingest: step size %g must be positive", dt)
	}
	return &tornadoSourceOf[F]{m: m, dt: dt}, nil
}

// NewTornadoSource adapts the analytic tornado model as a
// double-precision source stepping dt per slice.
func NewTornadoSource(m *tornado.Model, dt float64) (Source, error) {
	return NewTornadoSourceOf[float64](m, dt)
}

func (s *tornadoSourceOf[F]) Dims() grid.Dims {
	cfg := s.m.Config()
	return grid.Dims{Nx: cfg.Nx, Ny: cfg.Ny, Nz: cfg.Nz}
}

func (s *tornadoSourceOf[F]) Next(dst *grid.Field3DOf[F]) (float64, error) {
	t := float64(s.step) * s.dt
	s.step++
	return t, fillTornado(s.m, dst, t)
}

func (s *tornadoSourceOf[F]) Skip() (float64, error) {
	t := float64(s.step) * s.dt
	s.step++
	return t, nil
}

// fillSynth dispatches a kinematic scalar fill to the concrete precision.
func fillSynth[F num.Float](f *synth.Field, dst *grid.Field3DOf[F], t float64) error {
	switch d := any(dst).(type) {
	case *grid.Field3D:
		return f.SampleScalarInto(d, t)
	case *grid.Field3D32:
		return f.SampleScalarInto32(d, t)
	}
	return fmt.Errorf("ingest: unsupported precision %T", dst)
}

// synthSourceOf samples the kinematic turbulence field at a chosen grid
// size and step.
type synthSourceOf[F num.Float] struct {
	f    *synth.Field
	dims grid.Dims
	dt   float64
	step int
}

// NewSynthSourceOf adapts a synthetic kinematic field as a streaming
// source sampling dims at interval dt at precision F.
func NewSynthSourceOf[F num.Float](f *synth.Field, dims grid.Dims, dt float64) (SourceOf[F], error) {
	if !dims.Valid() {
		return nil, fmt.Errorf("ingest: invalid dims %v", dims)
	}
	if dt <= 0 {
		return nil, fmt.Errorf("ingest: step size %g must be positive", dt)
	}
	return &synthSourceOf[F]{f: f, dims: dims, dt: dt}, nil
}

// NewSynthSource adapts a synthetic kinematic field as a double-precision
// source sampling dims at interval dt.
func NewSynthSource(f *synth.Field, dims grid.Dims, dt float64) (Source, error) {
	return NewSynthSourceOf[float64](f, dims, dt)
}

func (s *synthSourceOf[F]) Dims() grid.Dims { return s.dims }

func (s *synthSourceOf[F]) Next(dst *grid.Field3DOf[F]) (float64, error) {
	t := float64(s.step) * s.dt
	s.step++
	return t, fillSynth(s.f, dst, t)
}

func (s *synthSourceOf[F]) Skip() (float64, error) {
	t := float64(s.step) * s.dt
	s.step++
	return t, nil
}
