package experiments

import (
	"fmt"
	"io"

	"stwave/internal/core"
	"stwave/internal/fbits"
	"stwave/internal/flow"
	"stwave/internal/grid"
	"stwave/internal/wavelet"
)

// Table2Thresholds are the paper's deviation distances D in meters.
var Table2Thresholds = []float64{10, 50, 150, 300, 500}

// Table2Ratios are the compression ratios of the pathline study.
var Table2Ratios = []float64{8, 32, 64, 128}

// Table2Row is one row of Table II: (ratio, mode) with the mean deviation
// error at every threshold.
type Table2Row struct {
	Ratio float64
	Mode  core.Mode
	// Errors[i] is the mean deviation percentage at Table2Thresholds[i].
	Errors []float64
}

// Table2Result holds all rows.
type Table2Result struct {
	Rows  []Table2Row
	Seeds int
}

// RunTable2 reproduces Table II: pathlines through the Tornado wind field
// advected with RK4, comparing each compressed version against the
// uncompressed baseline via the first-deviation metric. The three velocity
// components are compressed individually (Section VI-A), 4D with CDF 9/7
// and window size 18.
func RunTable2(sc Scale, progress io.Writer) (*Table2Result, error) {
	slices := sc.TornadoSlices / 2
	if slices < 20 {
		slices = 20
	}
	uSeq, vSeq, wSeq, err := TornadoVelocitySeries(sc, slices)
	if err != nil {
		return nil, err
	}
	m, err := tornadoModel(sc)
	if err != nil {
		return nil, err
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
			sl = append(sl, flow.VectorSlice{
				U: u.Slices[i], V: v.Slices[i], W: w.Slices[i], Time: u.Times[i],
			})
		}
		return flow.NewVectorSeries(dom, sl)
	}

	baseline, err := mkSeries(uSeq, vSeq, wSeq)
	if err != nil {
		return nil, err
	}

	// Three rakes of seeds at the base of the tornado (Section VI-A).
	t0 := uSeq.Times[0]
	cx := cfg.Lx / 3 // vortex start region
	cy := cfg.Ly / 3
	zLow := 0.03 * cfg.Lz
	rakeLen := 4 * cfg.CoreRadius
	var seeds []flow.Vec3
	for r := 0; r < 3; r++ {
		off := float64(r-1) * 1.5 * cfg.CoreRadius
		a := flow.Vec3{X: cx - rakeLen/2, Y: cy + off, Z: zLow}
		b := flow.Vec3{X: cx + rakeLen/2, Y: cy + off, Z: zLow}
		seeds = append(seeds, flow.Rake(a, b, sc.PathlineSeedsPerRake)...)
	}

	duration := uSeq.Times[len(uSeq.Times)-1] - t0
	steps := int(duration / sc.PathlineDt)
	opt := flow.AdvectOptions{Dt: sc.PathlineDt, Steps: steps}
	fprintf(progress, "table2: advecting %d seeds x %d steps (baseline)\n", len(seeds), steps)
	basePaths, err := flow.AdvectAll(baseline, seeds, t0, opt)
	if err != nil {
		return nil, err
	}

	res := &Table2Result{Seeds: len(seeds)}
	for _, ratio := range Table2Ratios {
		for _, mode := range []core.Mode{core.Spatial3D, core.Spatiotemporal4D} {
			var opts core.Options
			if mode == core.Spatial3D {
				opts = BaseOptions3D(ratio, sc.Workers)
			} else {
				// Section VI: CDF 9/7, window size 18.
				opts = BaseOptions4D(ratio, 18, sc.Workers)
				opts.TemporalKernel = wavelet.CDF97
			}
			fprintf(progress, "table2: %g:1 %v\n", ratio, mode)
			cu, _, err := roundTripSeq(uSeq, opts)
			if err != nil {
				return nil, err
			}
			cv, _, err := roundTripSeq(vSeq, opts)
			if err != nil {
				return nil, err
			}
			cw, _, err := roundTripSeq(wSeq, opts)
			if err != nil {
				return nil, err
			}
			series, err := mkSeries(cu, cv, cw)
			if err != nil {
				return nil, err
			}
			paths, err := flow.AdvectAll(series, seeds, t0, opt)
			if err != nil {
				return nil, err
			}
			row := Table2Row{Ratio: ratio, Mode: mode}
			for _, d := range Table2Thresholds {
				e, err := flow.MeanDeviationError(basePaths, paths, d)
				if err != nil {
					return nil, err
				}
				row.Errors = append(row.Errors, e)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Row returns the entry for (ratio, mode), or nil.
func (r *Table2Result) Row(ratio float64, mode core.Mode) *Table2Row {
	for i := range r.Rows {
		if fbits.Eq(r.Rows[i].Ratio, ratio) && r.Rows[i].Mode == mode {
			return &r.Rows[i]
		}
	}
	return nil
}

// Write renders Table II.
func (r *Table2Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Table II — pathline deviation error (%d seeds, mean %%)\n", r.Seeds)
	fmt.Fprintf(w, "%-12s", "Data Set")
	for _, d := range Table2Thresholds {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("D=%g", d))
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s", fmt.Sprintf("%g:1, %v", row.Ratio, row.Mode))
		for _, e := range row.Errors {
			fmt.Fprintf(w, " %7.1f%%", e)
		}
		fmt.Fprintln(w)
	}
}
