// Command simgen generates time series of raw float32 volumes from the
// built-in simulation substrates, for feeding to stcomp or external tools.
//
//	simgen -sim ghost   -n 32 -slices 40 -var vx        -out data/ghost
//	simgen -sim clover  -n 24 -slices 40 -var energy    -out data/clover
//	simgen -sim tornado -n 36 -slices 40 -var cloud     -out data/tornado
//	simgen -sim synth   -n 64 -slices 40 -var scalar    -out data/synth
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"stwave/internal/grid"
	"stwave/internal/sim/cloverleaf"
	"stwave/internal/sim/ghost"
	"stwave/internal/sim/synth"
	"stwave/internal/sim/tornado"
)

func main() {
	sim := flag.String("sim", "ghost", "ghost, clover, tornado, or synth")
	n := flag.Int("n", 32, "grid resolution per axis")
	slices := flag.Int("slices", 40, "number of time slices")
	every := flag.Int("every", 2, "solver steps between slices (ghost/clover)")
	variable := flag.String("var", "vx", "variable: vx, enstrophy, energy, vz, cloud, pressure, scalar")
	outPrefix := flag.String("out", "slice", "output path prefix")
	seed := flag.Int64("seed", 1, "random seed where applicable")
	flag.Parse()

	if dir := filepath.Dir(*outPrefix); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
	}
	gen, dims, err := makeGenerator(*sim, *n, *every, *variable, *seed)
	if err != nil {
		fatal(err)
	}
	for i := 0; i < *slices; i++ {
		f, err := gen(i)
		if err != nil {
			fatal(err)
		}
		path := fmt.Sprintf("%s-%04d.raw", *outPrefix, i)
		if err := f.SaveRawFile(path); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wrote %d slices of %v (%s/%s) with prefix %s\n", *slices, dims, *sim, *variable, *outPrefix)
}

// makeGenerator returns a closure producing slice i (must be called with
// consecutive i starting at 0) and the grid dims.
func makeGenerator(sim string, n, every int, variable string, seed int64) (func(int) (*grid.Field3D, error), grid.Dims, error) {
	switch sim {
	case "ghost":
		cfg := ghost.DefaultConfig(n)
		cfg.Seed = seed
		s, err := ghost.NewSolver(cfg)
		if err != nil {
			return nil, grid.Dims{}, err
		}
		if variable == "scalar" {
			if err := s.EnableScalar(ghost.ScalarConfig{Kappa: cfg.Nu, MeanGradient: 1}); err != nil {
				return nil, grid.Dims{}, err
			}
		}
		s.Run(50)
		return func(int) (*grid.Field3D, error) {
			var f *grid.Field3D
			switch variable {
			case "vx":
				f = s.VelocityX()
			case "enstrophy":
				f = s.Enstrophy()
			case "scalar":
				f = s.Scalar()
			default:
				return nil, fmt.Errorf("ghost variables: vx, enstrophy, scalar (got %q)", variable)
			}
			s.Run(every)
			return f, nil
		}, grid.Dims{Nx: n, Ny: n, Nz: n}, nil
	case "clover":
		s, err := cloverleaf.NewSolver(cloverleaf.DefaultConfig(n))
		if err != nil {
			return nil, grid.Dims{}, err
		}
		d := grid.Dims{Nx: n, Ny: n, Nz: n}
		if variable == "vx" {
			d = grid.Dims{Nx: n + 1, Ny: n + 1, Nz: n + 1}
		}
		return func(int) (*grid.Field3D, error) {
			var f *grid.Field3D
			switch variable {
			case "vx":
				f = s.VelocityX()
			case "energy":
				f = s.Energy()
			default:
				return nil, fmt.Errorf("clover variables: vx, energy (got %q)", variable)
			}
			s.Run(every)
			return f, nil
		}, d, nil
	case "tornado":
		m, err := tornado.NewModel(tornado.DefaultConfig(n, n, (n*2)/3))
		if err != nil {
			return nil, grid.Dims{}, err
		}
		return func(i int) (*grid.Field3D, error) {
			t := 8502 + float64(i)
			switch variable {
			case "vx":
				return m.VelocityX(t), nil
			case "vz":
				return m.VelocityZ(t), nil
			case "enstrophy":
				return m.Enstrophy(t), nil
			case "cloud":
				return m.CloudMixingRatio(t), nil
			case "pressure":
				return m.PressurePerturbation(t), nil
			}
			return nil, fmt.Errorf("tornado variables: vx, vz, enstrophy, cloud, pressure (got %q)", variable)
		}, grid.Dims{Nx: n, Ny: n, Nz: (n * 2) / 3}, nil
	case "synth":
		cfg := synth.DefaultConfig()
		cfg.Seed = seed
		f, err := synth.NewField(cfg)
		if err != nil {
			return nil, grid.Dims{}, err
		}
		return func(i int) (*grid.Field3D, error) {
			t := float64(i)
			switch variable {
			case "scalar":
				return f.SampleScalar(n, n, n, t)
			case "vx":
				return f.SampleVelocityX(n, n, n, t)
			}
			return nil, fmt.Errorf("synth variables: scalar, vx (got %q)", variable)
		}, grid.Dims{Nx: n, Ny: n, Nz: n}, nil
	}
	return nil, grid.Dims{}, fmt.Errorf("unknown simulation %q (ghost, clover, tornado, synth)", sim)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
	os.Exit(1)
}
