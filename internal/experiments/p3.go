package experiments

import (
	"fmt"
	"io"

	"stwave/internal/grid"
	"stwave/internal/metrics"
)

// P3Row is one ratio point of the P3 study.
type P3Row struct {
	// Ratio3D is the baseline ratio R; the 4D variant runs at 2R on twice
	// the slices so both store the same byte budget.
	Ratio3D float64
	// StoredBytes3D/4D verify the equal-storage premise (ideal accounting).
	StoredBytes3D, StoredBytes4D int64
	// EvenNRMSE is the error on the slices both variants actually stored
	// (the res=1/2 sampling).
	Even3D, Even4D float64
	// OddNRMSE is the error on the held-out intermediate slices: the 3D
	// variant must interpolate them in time, the 4D variant stored them.
	Odd3D, Odd4D float64
}

// P3Result is the increase-temporal-resolution study.
type P3Result struct {
	Rows []P3Row
}

// RunP3 makes the paper's Proposition 3 concrete and measurable: with a
// fixed storage budget, a scientist can either store every other slice with
// 3D compression at ratio R (res=1/2, the common practice) or store every
// slice with 4D compression at ratio 2R (res=1). Both cost the same bytes.
// The study reconstructs both and evaluates error on the even (stored by
// both) and odd (held-out; 3D must linearly interpolate) slices of the
// original full-rate series.
func RunP3(sc Scale, progress io.Writer) (*P3Result, error) {
	seq, err := GhostSeries(sc, GhostVelocityX)
	if err != nil {
		return nil, err
	}
	// Work on an even number of slices, full windows of 20 at res=1.
	n := (seq.Len() / 20) * 20
	if n < 20 {
		return nil, fmt.Errorf("experiments: need >= 20 slices, have %d", seq.Len())
	}
	full := grid.NewWindow(seq.Dims)
	for i := 0; i < n; i++ {
		if err := full.Append(seq.Slices[i], seq.Times[i]); err != nil {
			return nil, err
		}
	}
	half, err := full.Subsample(2)
	if err != nil {
		return nil, err
	}

	res := &P3Result{}
	for _, ratio := range []float64{8, 16, 32, 64} {
		fprintf(progress, "p3: ratio %g:1\n", ratio)
		row := P3Row{Ratio3D: ratio}

		// 3D at R on the half-rate series.
		recon3, bytes3, err := roundTripSeq(half, BaseOptions3D(ratio, sc.Workers))
		if err != nil {
			return nil, err
		}
		row.StoredBytes3D = bytes3

		// 4D at 2R on the full-rate series (window 20).
		recon4, bytes4, err := roundTripSeq(full, BaseOptions4D(2*ratio, 20, sc.Workers))
		if err != nil {
			return nil, err
		}
		row.StoredBytes4D = bytes4

		evens3 := metrics.NewAccumulator()
		evens4 := metrics.NewAccumulator()
		odds3 := metrics.NewAccumulator()
		odds4 := metrics.NewAccumulator()
		for i := 0; i < n; i++ {
			orig := full.Slices[i].Data
			if i%2 == 0 {
				if err := evens3.Add(orig, recon3.Slices[i/2].Data); err != nil {
					return nil, err
				}
				if err := evens4.Add(orig, recon4.Slices[i].Data); err != nil {
					return nil, err
				}
			} else {
				// 3D variant: interpolate the missing slice from its
				// reconstructed neighbors (clamp at the end).
				lo := recon3.Slices[i/2]
				hiIdx := i/2 + 1
				if hiIdx >= recon3.Len() {
					hiIdx = recon3.Len() - 1
				}
				hi := recon3.Slices[hiIdx]
				interp := make([]float64, len(orig))
				for j := range interp {
					interp[j] = 0.5 * (lo.Data[j] + hi.Data[j])
				}
				if err := odds3.Add(orig, interp); err != nil {
					return nil, err
				}
				if err := odds4.Add(orig, recon4.Slices[i].Data); err != nil {
					return nil, err
				}
			}
		}
		row.Even3D, row.Even4D = evens3.NRMSE(), evens4.NRMSE()
		row.Odd3D, row.Odd4D = odds3.NRMSE(), odds4.NRMSE()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Write renders the P3 table.
func (r *P3Result) Write(w io.Writer) {
	fmt.Fprintf(w, "P3 study — equal storage: 3D@R on res=1/2 vs 4D@2R on res=1 (Ghost velocity-x)\n")
	fmt.Fprintf(w, "%8s %12s %12s %14s %14s %14s %14s\n",
		"R", "3D bytes", "4D bytes", "even 3D", "even 4D", "held-out 3D", "held-out 4D")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6g:1 %12d %12d %14.4e %14.4e %14.4e %14.4e\n",
			row.Ratio3D, row.StoredBytes3D, row.StoredBytes4D,
			row.Even3D, row.Even4D, row.Odd3D, row.Odd4D)
	}
}
