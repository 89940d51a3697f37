package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/metrics"
	"stwave/internal/transform"
)

// ProgressiveLevelRow is one refinement step of the coarse-first delivery
// study: how many container bytes a reader must fetch to reconstruct
// through this level, and the quality it gets for them.
type ProgressiveLevelRow struct {
	// Level is the deepest detail level decoded (0 = approximation only).
	Level int
	// Dims is the reconstruction resolution at this level.
	Dims grid.Dims
	// Bytes is the serialized-window prefix a reader must fetch to decode
	// through this level (header + slice times + level table + groups 0..Level).
	Bytes int64
	// FracOfFull is Bytes over the full serialized window size.
	FracOfFull float64
	// PSNR is reconstruction quality in dB. Intermediate levels are scored
	// against the level-matched coarse reference (CoarseApproximation of
	// the original at the same depth — the ground truth a preview
	// approximates); the final level is scored against the original.
	PSNR float64
}

// ProgressiveROIRow is one region of the error-bounded refinement study:
// the bound the encoder was asked to hold there and the error it achieved.
type ProgressiveROIRow struct {
	Region  string
	Bound   float64
	MaxErr  float64
	PSNR    float64
	Samples int64
}

// ProgressiveResult holds the coarse-first delivery study: the
// bytes-vs-quality ladder of the level-major layout, its size overhead
// against the legacy layout, and the ROI-vs-background error split of the
// error-bounded mode.
type ProgressiveResult struct {
	Dims   grid.Dims
	Slices int
	Ratio  float64
	// LegacyBytes / FullBytes are the serialized window sizes of the v3
	// and v4 (level-major) layouts of the identical coefficient stream.
	LegacyBytes, FullBytes int64
	// PreviewGain is FullBytes over the level-0 prefix: how many times
	// fewer bytes a first usable preview costs than a full-window fetch.
	PreviewGain float64
	// LegacyPSNR / FinalPSNR are full-reconstruction qualities of the two
	// layouts — equal, because the layout only reorders the stream.
	LegacyPSNR, FinalPSNR float64
	Levels                []ProgressiveLevelRow
	// ROIBounds describes the error-bounded run: background bound, ROI
	// box bound, and the achieved split.
	ROIBackgroundBound, ROIBound float64
	ROIBytes                     int64
	ROI                          []ProgressiveROIRow
}

// RunProgressiveStudy measures what the level-major (v4) layout buys a
// streaming reader on the Ghost enstrophy fixture at twice the scale's
// resolution (a deeper transform gives the layout more levels to
// stream): bytes-to-first-preview versus a full-window fetch, the
// PSNR-vs-bytes refinement ladder, and — in error-bounded mode — the
// achieved ROI versus background error split.
func RunProgressiveStudy(sc Scale, progress io.Writer) (*ProgressiveResult, error) {
	sc.GhostN *= 2 // deeper spatial transform: more level groups to stream
	const slices = 20
	if sc.GhostSlices > slices {
		sc.GhostSlices = slices // the study needs one window, not the full series
	}
	seq, err := GhostSeries(sc, GhostEnstrophy)
	if err != nil {
		return nil, err
	}
	if seq.Len() < slices {
		return nil, fmt.Errorf("experiments: need %d slices, have %d", slices, seq.Len())
	}
	win := grid.NewWindow(seq.Dims)
	for i := 0; i < slices; i++ {
		if err := win.Append(seq.Slices[i], seq.Times[i]); err != nil {
			return nil, err
		}
	}
	const ratio = 32
	res := &ProgressiveResult{Dims: seq.Dims, Slices: slices, Ratio: ratio}

	// Legacy (v3) baseline: same coefficients, contiguous layout.
	fprintf(progress, "progressive: legacy baseline\n")
	legacyOpts := BaseOptions4D(ratio, slices, sc.Workers)
	legacyComp, err := core.New(legacyOpts)
	if err != nil {
		return nil, err
	}
	legacyRecon, legacyCW, err := legacyComp.RoundTrip(win)
	if err != nil {
		return nil, err
	}
	res.LegacyBytes, err = serializedSize(legacyCW)
	if err != nil {
		return nil, err
	}
	res.LegacyPSNR, err = windowPSNR(win, legacyRecon)
	if err != nil {
		return nil, err
	}

	// Progressive (v4): serialize once, then decode every byte prefix the
	// level table addresses, exactly as a remote reader would fetch them.
	fprintf(progress, "progressive: level ladder\n")
	progOpts := legacyOpts
	progOpts.Progressive = true
	progComp, err := core.New(progOpts)
	if err != nil {
		return nil, err
	}
	progCW, err := core.Compress(context.Background(), progComp, win, core.Copy)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := progCW.WriteTo(&buf); err != nil {
		return nil, err
	}
	encoded := buf.Bytes()
	res.FullBytes = int64(len(encoded))
	_, table, payloadStart, err := core.ReadWindowLevelTable(bytes.NewReader(encoded))
	if err != nil {
		return nil, err
	}
	L := len(table.Extents) - 1 // deepest detail level
	for K := 0; K <= L; K++ {
		prefix := payloadStart + table.PrefixBytes(K)
		cw, err := core.ReadCompressedWindowLevels(bytes.NewReader(encoded[:prefix]), K)
		if err != nil {
			return nil, err
		}
		recon, err := core.Reconstruct[float64](context.Background(), cw, core.Query{MaxLevel: K, Slice: core.All})
		if err != nil {
			return nil, err
		}
		var psnr float64
		if K == L {
			psnr, err = windowPSNR(win, recon)
		} else {
			psnr, err = coarsePSNR(win, recon, progOpts, L-K, sc.Workers)
		}
		if err != nil {
			return nil, err
		}
		res.Levels = append(res.Levels, ProgressiveLevelRow{
			Level: K, Dims: recon.Dims, Bytes: prefix,
			FracOfFull: float64(prefix) / float64(res.FullBytes),
			PSNR:       psnr,
		})
		fprintf(progress, "progressive: level %d/%d (%v, %d bytes)\n", K, L, recon.Dims, prefix)
	}
	res.PreviewGain = float64(res.FullBytes) / float64(res.Levels[0].Bytes)
	res.FinalPSNR = res.Levels[len(res.Levels)-1].PSNR

	// Error-bounded refinement: a centered ROI box held to a 10x tighter
	// bound than the background, both bounds relative to the data range.
	fprintf(progress, "progressive: error-bounded ROI split\n")
	lo, hi := win.Slices[0].Data[0], win.Slices[0].Data[0]
	for _, s := range win.Slices {
		for _, v := range s.Data {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	d := win.Dims
	roi := &core.ROIBounds{
		X0: d.Nx / 4, Y0: d.Ny / 4, Z0: d.Nz / 4,
		X1: 3 * d.Nx / 4, Y1: 3 * d.Ny / 4, Z1: 3 * d.Nz / 4,
	}
	res.ROIBackgroundBound = 0.02 * (hi - lo)
	res.ROIBound = 0.002 * (hi - lo)
	roi.MaxErr = res.ROIBound
	roiOpts := progOpts
	roiOpts.MaxErr = res.ROIBackgroundBound
	roiOpts.ROI = roi
	roiComp, err := core.New(roiOpts)
	if err != nil {
		return nil, err
	}
	roiRecon, roiCW, err := roiComp.RoundTrip(win)
	if err != nil {
		return nil, err
	}
	res.ROIBytes, err = serializedSize(roiCW)
	if err != nil {
		return nil, err
	}
	inAcc, outAcc := metrics.NewAccumulator(), metrics.NewAccumulator()
	var inMax, outMax float64
	var inN, outN int64
	for i := range win.Slices {
		orig, rec := win.Slices[i], roiRecon.Slices[i]
		for z := 0; z < d.Nz; z++ {
			for y := 0; y < d.Ny; y++ {
				for x := 0; x < d.Nx; x++ {
					idx := orig.Index(x, y, z)
					diff := rec.Data[idx] - orig.Data[idx]
					if diff < 0 {
						diff = -diff
					}
					if roi.Contains(x, y, z) {
						inMax = max(inMax, diff)
						inN++
						if err := inAcc.Add(orig.Data[idx:idx+1], rec.Data[idx:idx+1]); err != nil {
							return nil, err
						}
					} else {
						outMax = max(outMax, diff)
						outN++
						if err := outAcc.Add(orig.Data[idx:idx+1], rec.Data[idx:idx+1]); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	res.ROI = []ProgressiveROIRow{
		{Region: "ROI", Bound: res.ROIBound, MaxErr: inMax, PSNR: inAcc.PSNR(), Samples: inN},
		{Region: "background", Bound: res.ROIBackgroundBound, MaxErr: outMax, PSNR: outAcc.PSNR(), Samples: outN},
	}
	return res, nil
}

// serializedSize measures a window's on-wire size without keeping the bytes.
func serializedSize(cw *core.CompressedWindow) (int64, error) {
	var buf bytes.Buffer
	n, err := cw.WriteTo(&buf)
	return n, err
}

// windowPSNR scores a reconstruction against the original, slice by slice.
func windowPSNR(orig, recon *grid.Window) (float64, error) {
	ac := metrics.NewAccumulator()
	for i := range orig.Slices {
		if err := ac.Add(orig.Slices[i].Data, recon.Slices[i].Data); err != nil {
			return 0, err
		}
	}
	return ac.PSNR(), nil
}

// coarsePSNR scores a partial reconstruction against the level-matched
// coarse reference of the original — the ground truth a depth-limited
// preview approximates.
func coarsePSNR(orig, recon *grid.Window, opts core.Options, skippedLevels, workers int) (float64, error) {
	ac := metrics.NewAccumulator()
	for i := range orig.Slices {
		ref, err := transform.CoarseApproximation(orig.Slices[i], opts.SpatialKernel, skippedLevels, workers)
		if err != nil {
			return 0, err
		}
		if err := ac.Add(ref.Data, recon.Slices[i].Data); err != nil {
			return 0, err
		}
	}
	return ac.PSNR(), nil
}

// Write renders the study: the refinement ladder, the preview headline,
// and the ROI error split.
func (r *ProgressiveResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Progressive coarse-first delivery (%v x %d slices, Ghost enstrophy, ratio %g:1)\n",
		r.Dims, r.Slices, r.Ratio)
	fmt.Fprintf(w, "layout overhead: legacy %s -> progressive %s (%+.1f%%)\n",
		fmtBytes(r.LegacyBytes), fmtBytes(r.FullBytes),
		100*(float64(r.FullBytes)/float64(r.LegacyBytes)-1))
	fmt.Fprintf(w, "%7s %14s %12s %10s %12s\n", "Level", "Dims", "Bytes", "Of full", "PSNR")
	for _, row := range r.Levels {
		ref := "vs coarse ref"
		if row.Level == len(r.Levels)-1 {
			ref = "vs original"
		}
		fmt.Fprintf(w, "%7d %14v %12s %9.1f%% %9.2fdB  %s\n",
			row.Level, row.Dims, fmtBytes(row.Bytes), 100*row.FracOfFull, row.PSNR, ref)
	}
	fmt.Fprintf(w, "first usable preview: %s, %.1fx fewer bytes than the %s full fetch\n",
		fmtBytes(r.Levels[0].Bytes), r.PreviewGain, fmtBytes(r.FullBytes))
	fmt.Fprintf(w, "final PSNR %.2fdB (legacy layout %.2fdB)\n", r.FinalPSNR, r.LegacyPSNR)
	fmt.Fprintf(w, "error-bounded ROI refinement (%s encoded):\n", fmtBytes(r.ROIBytes))
	fmt.Fprintf(w, "%12s %12s %12s %10s %12s\n", "Region", "Bound", "Max err", "PSNR", "Samples")
	for _, row := range r.ROI {
		fmt.Fprintf(w, "%12s %12.3e %12.3e %8.2fdB %12d\n",
			row.Region, row.Bound, row.MaxErr, row.PSNR, row.Samples)
	}
}
