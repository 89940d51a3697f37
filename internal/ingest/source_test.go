package ingest

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/sim/cloverleaf"
	"stwave/internal/sim/ghost"
	"stwave/internal/sim/synth"
	"stwave/internal/sim/tornado"
)

// sourceNames lists every simulation the ingest path adapts.
var sourceNames = []string{"ghost", "cloverleaf", "tornado", "synth"}

// newNamedSource builds the named source at precision F from a freshly
// constructed, identically configured simulation, so two calls march
// through the same states. It returns the dims the source was built for.
func newNamedSource[F num.Float](t *testing.T, name string) (SourceOf[F], grid.Dims) {
	t.Helper()
	const n = 8
	cube := grid.Dims{Nx: n, Ny: n, Nz: n}
	var (
		src SourceOf[F]
		err error
	)
	switch name {
	case "ghost":
		var s *ghost.Solver
		if s, err = ghost.NewSolver(ghost.DefaultConfig(n)); err != nil {
			t.Fatal(err)
		}
		if err = s.EnableScalar(ghost.ScalarConfig{Kappa: 0.08, MeanGradient: 1}); err != nil {
			t.Fatal(err)
		}
		src, err = NewGhostSourceOf[F](s)
		return mustSource(t, src, err), cube
	case "cloverleaf":
		var s *cloverleaf.Solver
		if s, err = cloverleaf.NewSolver(cloverleaf.DefaultConfig(n)); err != nil {
			t.Fatal(err)
		}
		return NewCloverleafSourceOf[F](s), cube
	case "tornado":
		d := grid.Dims{Nx: 10, Ny: 9, Nz: 6}
		var m *tornado.Model
		if m, err = tornado.NewModel(tornado.DefaultConfig(d.Nx, d.Ny, d.Nz)); err != nil {
			t.Fatal(err)
		}
		src, err = NewTornadoSourceOf[F](m, testDT)
		return mustSource(t, src, err), d
	case "synth":
		d := grid.Dims{Nx: 7, Ny: 5, Nz: 4}
		var f *synth.Field
		if f, err = synth.NewField(synth.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		src, err = NewSynthSourceOf[F](f, d, testDT)
		return mustSource(t, src, err), d
	}
	t.Fatalf("unknown source %q", name)
	return nil, grid.Dims{}
}

func mustSource[F num.Float](t *testing.T, src SourceOf[F], err error) SourceOf[F] {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// play builds a fresh name source at precision F, checks that Dims is the
// geometry it was built for, and drives it through steps, where 'N' is
// Next and 'S' is Skip. It returns each step's time and, for Next steps,
// the fill widened to float64 (nil for Skip steps).
func play[F num.Float](t *testing.T, name, steps string) ([]float64, [][]float64) {
	t.Helper()
	src, want := newNamedSource[F](t, name)
	d := src.Dims()
	if d != want {
		t.Fatalf("Dims() = %v, want %v", d, want)
	}
	dst := grid.NewField3DOf[F](d.Nx, d.Ny, d.Nz)
	times := make([]float64, len(steps))
	fills := make([][]float64, len(steps))
	for i, op := range steps {
		var err error
		if op == 'S' {
			times[i], err = src.Skip()
		} else {
			times[i], err = src.Next(dst)
			fills[i] = num.Widen(dst.Data)
		}
		if err != nil {
			t.Fatalf("step %d (%c): %v", i, op, err)
		}
	}
	return times, fills
}

// TestSourcesAtBothPrecisions: for three steps of every source, the
// float32 fill is float32(v) of the float64 fill's sample v, bit for bit
// and at the same time; Skip returns the time Next would have and leaves
// the simulation where sampling leaves it, so later fills match at either
// precision; and Dims is the geometry the filled field has.
func TestSourcesAtBothPrecisions(t *testing.T) {
	same := func(v float64) float64 { return v }
	narrow := func(v float64) float64 { return float64(float32(v)) }
	for _, name := range sourceNames {
		t.Run(name, func(t *testing.T) {
			t64, f64 := play[float64](t, name, "NNN")
			st64, sf64 := play[float64](t, name, "SNS")
			t32, f32 := play[float32](t, name, "NNN")
			st32, sf32 := play[float32](t, name, "SNS")
			for _, c := range []struct {
				what           string
				steps          string
				times, ref     []float64
				fills, refFill [][]float64
				round          func(float64) float64
			}{
				{"float64 skipping vs float64", "SNS", st64, t64, sf64, f64, same},
				{"float32 vs float64", "NNN", t32, t64, f32, f64, narrow},
				{"float32 skipping vs float64 skipping", "SNS", st32, st64, sf32, sf64, narrow},
			} {
				for i, op := range c.steps {
					if c.times[i] != c.ref[i] {
						t.Errorf("%s: step %d (%c) at t=%g, want t=%g", c.what, i, op, c.times[i], c.ref[i])
					}
					if op == 'S' {
						continue
					}
					for j, v := range c.refFill[i] {
						if got, want := c.fills[i][j], c.round(v); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: step %d sample %d = %v, want %v", c.what, i, j, got, want)
						}
					}
				}
			}
		})
	}
}

// TestRawFileSource: raw volumes replay at times 0, 1, 2, … and Skip
// steps past a file without reading it; a file that is not exactly one
// volume of the requested dims is rejected when the source is built, and
// a missing file too.
func TestRawFileSource(t *testing.T) {
	dir := t.TempDir()
	d := grid.Dims{Nx: 4, Ny: 3, Nz: 2}
	paths := make([]string, 3)
	for i := range paths {
		f := grid.NewField3D32(d.Nx, d.Ny, d.Nz)
		for j := range f.Data {
			f.Data[j] = float32(i*100 + j)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("s%d.raw", i))
		if err := f.SaveRawFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewRawFileSourceOf[float64](paths, d)
	if err != nil {
		t.Fatal(err)
	}
	dst := grid.NewField3D(d.Nx, d.Ny, d.Nz)
	if tm, err := src.Next(dst); err != nil || tm != 0 || dst.Data[5] != 5 {
		t.Fatalf("Next = t %g, sample %g, %v; want t 0, sample 5", tm, dst.Data[5], err)
	}
	if tm, err := src.Skip(); err != nil || tm != 1 {
		t.Fatalf("Skip = t %g, %v; want t 1", tm, err)
	}
	if tm, err := src.Next(dst); err != nil || tm != 2 || dst.Data[5] != 205 {
		t.Fatalf("Next = t %g, sample %g, %v; want t 2, sample 205", tm, dst.Data[5], err)
	}
	if _, err := src.Next(dst); err == nil {
		t.Error("Next past the last file succeeded")
	}
	for name, dims := range map[string]grid.Dims{
		"smaller dims": {Nx: 2, Ny: 3, Nz: 2},
		"larger dims":  {Nx: 4, Ny: 3, Nz: 3},
		"2^41 samples": {Nx: grid.MaxAxis, Ny: grid.MaxAxis, Nz: 2},
	} {
		if _, err := NewRawFileSourceOf[float32](paths, dims); err == nil {
			t.Errorf("%s: %v accepted for %v files", name, dims, d)
		}
	}
	if _, err := NewRawFileSourceOf[float32](append(paths, filepath.Join(dir, "missing.raw")), d); err == nil {
		t.Error("a missing file accepted")
	}
}
