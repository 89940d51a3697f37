package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"stwave/internal/core"
	"stwave/internal/flow"
	"stwave/internal/grid"
	"stwave/internal/isosurface"
	"stwave/internal/render"
	"stwave/internal/wavelet"
)

// Figures 4 and 5 of the paper are qualitative: Figure 4 shows individual
// pathlines from original/4D/3D data at 128:1 diverging over time, Figure 5
// shows isosurface renderings. These runners regenerate the equivalent
// artifacts as image files: a top-down pathline plot (Figure 4) and
// cloud-isosurface mask slices from each data version (Figure 5).

// RunFig4 writes fig4-pathlines.pgm into dir: a top-down (XY) plot of a few
// pathlines advected through original (brightest), 4D-compressed (medium),
// and 3D-compressed (dim) winds at 128:1, the paper's Figure 4 comparison.
// It returns the written file path and the final-position gap between each
// compressed version and the baseline, averaged over the plotted particles.
func RunFig4(sc Scale, dir string, progress io.Writer) (path string, gap3D, gap4D float64, err error) {
	slices := sc.TornadoSlices / 2
	if slices < 20 {
		slices = 20
	}
	uSeq, vSeq, wSeq, err := TornadoVelocitySeries(sc, slices)
	if err != nil {
		return "", 0, 0, err
	}
	m, err := tornadoModel(sc)
	if err != nil {
		return "", 0, 0, err
	}
	cfg := m.Config()
	dx, dy, dz := m.Spacing()
	dom := flow.Domain{
		Origin:  flow.Vec3{X: m.CellX(0), Y: m.CellY(0), Z: m.CellZ(0)},
		Spacing: flow.Vec3{X: dx, Y: dy, Z: dz},
	}
	mkSeries := func(u, v, w *grid.Window) (*flow.VectorSeries, error) {
		var sl []flow.VectorSlice
		for i := range u.Slices {
			sl = append(sl, flow.VectorSlice{U: u.Slices[i], V: v.Slices[i], W: w.Slices[i], Time: u.Times[i]})
		}
		return flow.NewVectorSeries(dom, sl)
	}
	baseline, err := mkSeries(uSeq, vSeq, wSeq)
	if err != nil {
		return "", 0, 0, err
	}
	versions := map[string]*flow.VectorSeries{"orig": baseline}
	for _, mode := range []core.Mode{core.Spatial3D, core.Spatiotemporal4D} {
		opts := BaseOptions3D(128, sc.Workers)
		if mode == core.Spatiotemporal4D {
			opts = BaseOptions4D(128, 18, sc.Workers)
			opts.TemporalKernel = wavelet.CDF97
		}
		cu, _, err := roundTripSeq(uSeq, opts)
		if err != nil {
			return "", 0, 0, err
		}
		cv, _, err := roundTripSeq(vSeq, opts)
		if err != nil {
			return "", 0, 0, err
		}
		cw, _, err := roundTripSeq(wSeq, opts)
		if err != nil {
			return "", 0, 0, err
		}
		vs, err := mkSeries(cu, cv, cw)
		if err != nil {
			return "", 0, 0, err
		}
		versions[mode.String()] = vs
	}

	t0 := uSeq.Times[0]
	duration := uSeq.Times[len(uSeq.Times)-1] - t0
	opt := flow.AdvectOptions{Dt: sc.PathlineDt, Steps: int(duration / sc.PathlineDt)}
	seeds := flow.Rake(
		flow.Vec3{X: cfg.Lx/3 - cfg.CoreRadius, Y: cfg.Ly / 3, Z: 0.04 * cfg.Lz},
		flow.Vec3{X: cfg.Lx/3 + cfg.CoreRadius, Y: cfg.Ly / 3, Z: 0.04 * cfg.Lz},
		4)
	paths := map[string][]*flow.Pathline{}
	for name, vs := range versions {
		fprintf(progress, "fig4: advecting %s\n", name)
		pls, err := flow.AdvectAll(vs, seeds, t0, opt)
		if err != nil {
			return "", 0, 0, err
		}
		paths[name] = pls
	}

	// Plot top-down: map physical XY onto an image.
	const imgN = 360
	im := render.NewImage(imgN, imgN)
	plot := func(pls []*flow.Pathline, intensity float64) {
		for _, pl := range pls {
			for _, p := range pl.Points {
				px := int(p.X / cfg.Lx * imgN)
				py := int(p.Y / cfg.Ly * imgN)
				if px < 0 || py < 0 || px >= imgN || py >= imgN {
					continue
				}
				if im.At(px, py) < intensity {
					im.Set(px, py, intensity)
				}
			}
		}
	}
	plot(paths["3D"], 0.35)
	plot(paths["4D"], 0.65)
	plot(paths["orig"], 1.0)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, 0, err
	}
	path = filepath.Join(dir, "fig4-pathlines.pgm")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, 0, err
	}
	defer f.Close()
	if err := im.WritePGM(f); err != nil {
		return "", 0, 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, 0, err
	}

	meanGap := func(name string) float64 {
		var sum float64
		for i, pl := range paths[name] {
			sum += pl.End().Dist(paths["orig"][i].End())
		}
		return sum / float64(len(seeds))
	}
	return path, meanGap("3D"), meanGap("4D"), nil
}

// RunFig5 writes three PGM images into dir — the cloud-mixing-ratio
// isosurface mask (a mid-level slice of inside/outside at the paper's
// isovalue) from original, 4D, and 3D data at 64:1 — plus returns the
// surface areas measured on each full 3D field, the quantitative core of
// the paper's Figure 5 / Table III story.
func RunFig5(sc Scale, dir string, progress io.Writer) (paths []string, areaOrig, area3D, area4D float64, err error) {
	const windowSize = 18
	const isovalue = 1.0
	seq, err := TornadoSeries(sc, TornadoCloudRatio)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if seq.Len() < windowSize {
		return nil, 0, 0, 0, fmt.Errorf("experiments: need %d slices", windowSize)
	}
	win := grid.NewWindow(seq.Dims)
	for i := 0; i < windowSize; i++ {
		if err := win.Append(seq.Slices[i], seq.Times[i]); err != nil {
			return nil, 0, 0, 0, err
		}
	}
	m, err := tornadoModel(sc)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	dx, dy, dz := m.Spacing()
	iopt := isosurface.Options{SpacingX: dx, SpacingY: dy, SpacingZ: dz}
	evalIdx := windowSize / 2

	version := func(mode core.Mode) (*grid.Field3D, error) {
		var opts core.Options
		if mode == core.Spatial3D {
			opts = BaseOptions3D(64, sc.Workers)
		} else {
			opts = BaseOptions4D(64, windowSize, sc.Workers)
		}
		comp, err := core.New(opts)
		if err != nil {
			return nil, err
		}
		recon, _, err := comp.RoundTrip(win)
		if err != nil {
			return nil, err
		}
		return recon.Slices[evalIdx], nil
	}

	fields := map[string]*grid.Field3D{"orig": win.Slices[evalIdx]}
	if fields["3D"], err = version(core.Spatial3D); err != nil {
		return nil, 0, 0, 0, err
	}
	if fields["4D"], err = version(core.Spatiotemporal4D); err != nil {
		return nil, 0, 0, 0, err
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, 0, err
	}
	areas := map[string]float64{}
	for _, name := range []string{"orig", "4D", "3D"} {
		field := fields[name]
		mesh, err := isosurface.Extract(field, isovalue, iopt)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		areas[name] = mesh.SurfaceArea()
		fprintf(progress, "fig5: %s surface area %.4g (%d triangles)\n", name, areas[name], len(mesh.Triangles))

		// Mask slice at the cloud level: inside the isosurface = white.
		mask := grid.NewField3D(field.Dims.Nx, field.Dims.Ny, field.Dims.Nz)
		for i, v := range field.Data {
			if v >= isovalue {
				mask.Data[i] = 1
			}
		}
		im, err := render.SliceXY(mask, field.Dims.Nz/2)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		p := filepath.Join(dir, fmt.Sprintf("fig5-cloud-%s.pgm", name))
		f, err := os.Create(p)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		if err := im.WritePGM(f); err != nil {
			f.Close() //stlint:ignore uncheckederr the write failure is what matters; the final Close below is checked
			return nil, 0, 0, 0, err
		}
		if err := f.Close(); err != nil {
			return nil, 0, 0, 0, err
		}
		paths = append(paths, p)
	}
	return paths, areas["orig"], areas["3D"], areas["4D"], nil
}
