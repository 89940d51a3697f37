// Pathlines: reproduce the paper's Section VI-A analysis in miniature —
// advect particles through original, 3D-compressed, and 4D-compressed
// tornado winds and score each compressed version with the first-deviation
// metric.
//
//	go run ./examples/pathlines
package main

import (
	"fmt"
	"log"

	"stwave/internal/core"
	"stwave/internal/flow"
	"stwave/internal/grid"
	"stwave/internal/sim/tornado"
)

func main() {
	// Tornado wind field sampled at the collaborator cadence of 2 s.
	model, err := tornado.NewModel(tornado.DefaultConfig(28, 28, 18))
	if err != nil {
		log.Fatal(err)
	}
	cfg := model.Config()
	const slices = 30
	const t0 = 8502.0 // the paper's first time slice, in seconds

	d := grid.Dims{Nx: cfg.Nx, Ny: cfg.Ny, Nz: cfg.Nz}
	uW, vW, wW := grid.NewWindow(d), grid.NewWindow(d), grid.NewWindow(d)
	for i := 0; i < slices; i++ {
		t := t0 + 2*float64(i)
		u, v, w := model.Velocity(t)
		must(uW.Append(u, t))
		must(vW.Append(v, t))
		must(wW.Append(w, t))
	}

	dx, dy, dz := model.Spacing()
	dom := flow.Domain{
		Origin:  flow.Vec3{X: model.CellX(0), Y: model.CellY(0), Z: model.CellZ(0)},
		Spacing: flow.Vec3{X: dx, Y: dy, Z: dz},
	}
	mkSeries := func(u, v, w *grid.Window) *flow.VectorSeries {
		var sl []flow.VectorSlice
		for i := range u.Slices {
			sl = append(sl, flow.VectorSlice{U: u.Slices[i], V: v.Slices[i], W: w.Slices[i], Time: u.Times[i]})
		}
		vs, err := flow.NewVectorSeries(dom, sl)
		if err != nil {
			log.Fatal(err)
		}
		return vs
	}
	baseline := mkSeries(uW, vW, wW)

	// A rake of particles near the tornado's base.
	cx, cy := cfg.Lx/3, cfg.Ly/3
	seeds := flow.Rake(
		flow.Vec3{X: cx - 2*cfg.CoreRadius, Y: cy, Z: 0.03 * cfg.Lz},
		flow.Vec3{X: cx + 2*cfg.CoreRadius, Y: cy, Z: 0.03 * cfg.Lz},
		24)
	opt := flow.AdvectOptions{Dt: 0.05, Steps: int((2 * (slices - 1)) / 0.05)}
	basePaths, err := flow.AdvectAll(baseline, seeds, t0, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("advected %d particles for %.0f s through the original winds\n",
		len(seeds), basePaths[0].Duration())

	// Compress each velocity component at 32:1 in both modes and re-advect.
	compressAll := func(mode core.Mode) *flow.VectorSeries {
		opts := core.DefaultOptions()
		opts.Mode = mode
		opts.WindowSize = 18 // the paper's Section VI window
		opts.Ratio = 32
		comp, err := core.New(opts)
		if err != nil {
			log.Fatal(err)
		}
		roundTrip := func(seq *grid.Window) *grid.Window {
			chunks, err := seq.Partition(opts.SlicesPerWindow())
			if err != nil {
				log.Fatal(err)
			}
			out := grid.NewWindow(seq.Dims)
			for _, ch := range chunks {
				recon, _, err := comp.RoundTrip(ch)
				if err != nil {
					log.Fatal(err)
				}
				for i := range recon.Slices {
					must(out.Append(recon.Slices[i], recon.Times[i]))
				}
			}
			return out
		}
		return mkSeries(roundTrip(uW), roundTrip(vW), roundTrip(wW))
	}

	thresholds := []float64{10, 50, 150, 300, 500}
	errors := map[core.Mode][]float64{}
	for _, mode := range []core.Mode{core.Spatial3D, core.Spatiotemporal4D} {
		series := compressAll(mode)
		paths, err := flow.AdvectAll(series, seeds, t0, opt)
		if err != nil {
			log.Fatal(err)
		}
		for _, dThresh := range thresholds {
			e, err := flow.MeanDeviationError(basePaths, paths, dThresh)
			if err != nil {
				log.Fatal(err)
			}
			errors[mode] = append(errors[mode], e)
		}
	}
	fmt.Printf("%-8s %9s %9s\n", "D (m)", "3D error", "4D error")
	for i, dThresh := range thresholds {
		fmt.Printf("%-8g %8.1f%% %8.1f%%\n", dThresh,
			errors[core.Spatial3D][i], errors[core.Spatiotemporal4D][i])
	}
	fmt.Println("Lower is better: pathlines from 4D-compressed winds track the originals longer.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
