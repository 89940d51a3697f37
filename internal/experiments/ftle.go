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

// FTLERow is one (ratio, mode) cell of the FTLE study.
type FTLERow struct {
	Ratio float64
	Mode  core.Mode
	// MeanAbsDiff is the mean |FTLE - FTLE_baseline| over the seed plane.
	MeanAbsDiff float64
}

// FTLEResult is the finite-time-Lyapunov-exponent extension study.
type FTLEResult struct {
	BaselineMax float64
	Rows        []FTLERow
}

// RunFTLE extends the paper's Section VI with a finite-time Lyapunov
// exponent analysis — the canonical "sensitive to cumulative errors over
// time" computation its introduction motivates. A seed plane near the
// tornado core is advected through original, 3D-, and 4D-compressed winds;
// the error is the mean absolute FTLE difference against the original.
func RunFTLE(sc Scale, progress io.Writer) (*FTLEResult, error) {
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
			sl = append(sl, flow.VectorSlice{U: u.Slices[i], V: v.Slices[i], W: w.Slices[i], Time: u.Times[i]})
		}
		return flow.NewVectorSeries(dom, sl)
	}
	baseline, err := mkSeries(uSeq, vSeq, wSeq)
	if err != nil {
		return nil, err
	}

	// Seed plane: horizontal grid at low level crossing the vortex track.
	t0 := uSeq.Times[0]
	duration := uSeq.Times[len(uSeq.Times)-1] - t0
	steps := int(duration / (4 * sc.PathlineDt)) // coarser than Table II: many seeds
	if steps < 10 {
		steps = 10
	}
	opt := flow.FTLEOptions{
		T0:     t0,
		Advect: flow.AdvectOptions{Dt: duration / float64(steps), Steps: steps},
	}
	origin := flow.Vec3{X: cfg.Lx/3 - 2*cfg.CoreRadius, Y: cfg.Ly/3 - 2*cfg.CoreRadius, Z: 0.05 * cfg.Lz}
	du := flow.Vec3{X: 4 * cfg.CoreRadius / 12}
	dv := flow.Vec3{Y: 4 * cfg.CoreRadius / 12}
	const nu, nv = 13, 13

	fprintf(progress, "ftle: baseline plane %dx%d, %d advection steps\n", nu, nv, steps)
	basePlane, err := flow.ComputeFTLE(baseline, origin, du, dv, nu, nv, opt)
	if err != nil {
		return nil, err
	}
	res := &FTLEResult{BaselineMax: basePlane.Max()}

	for _, ratio := range []float64{32, 128} {
		for _, mode := range []core.Mode{core.Spatial3D, core.Spatiotemporal4D} {
			var opts core.Options
			if mode == core.Spatial3D {
				opts = BaseOptions3D(ratio, sc.Workers)
			} else {
				opts = BaseOptions4D(ratio, 18, sc.Workers)
				opts.TemporalKernel = wavelet.CDF97
			}
			fprintf(progress, "ftle: %g:1 %v\n", ratio, mode)
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
			plane, err := flow.ComputeFTLE(series, origin, du, dv, nu, nv, opt)
			if err != nil {
				return nil, err
			}
			d, err := basePlane.MeanAbsDiff(plane)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, FTLERow{Ratio: ratio, Mode: mode, MeanAbsDiff: d})
		}
	}
	return res, nil
}

// Row returns the entry for (ratio, mode), or nil.
func (r *FTLEResult) Row(ratio float64, mode core.Mode) *FTLERow {
	for i := range r.Rows {
		if fbits.Eq(r.Rows[i].Ratio, ratio) && r.Rows[i].Mode == mode {
			return &r.Rows[i]
		}
	}
	return nil
}

// Write renders the FTLE study.
func (r *FTLEResult) Write(w io.Writer) {
	fmt.Fprintf(w, "FTLE study (extension) — Tornado winds; baseline max FTLE %.4g 1/s\n", r.BaselineMax)
	fmt.Fprintf(w, "%-12s %16s\n", "Data Set", "mean |ΔFTLE|")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %16.4e\n", fmt.Sprintf("%g:1, %v", row.Ratio, row.Mode), row.MeanAbsDiff)
	}
}
