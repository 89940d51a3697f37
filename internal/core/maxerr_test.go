package core

import (
	"context"
	"math"
	"testing"

	"stwave/internal/codec"
	"stwave/internal/grid"
)

func maxErrOpts(bound float64) Options {
	o := DefaultOptions()
	o.WindowSize = 8
	o.MaxErr = bound
	o.Workers = 2
	return o
}

// maxAbsErrSplit measures the achieved maximum absolute error inside and
// outside the ROI box (background only when roi is nil).
func maxAbsErrSplit(t *testing.T, orig, recon *grid.Window, roi *ROIBounds) (bg, in float64) {
	t.Helper()
	d := orig.Dims
	for i := range orig.Slices {
		a, b := orig.Slices[i].Data, recon.Slices[i].Data
		idx := 0
		for z := 0; z < d.Nz; z++ {
			for y := 0; y < d.Ny; y++ {
				for x := 0; x < d.Nx; x++ {
					e := math.Abs(a[idx] - b[idx])
					if roi != nil && roi.Contains(x, y, z) {
						if e > in {
							in = e
						}
					} else if e > bg {
						bg = e
					}
					idx++
				}
			}
		}
	}
	return bg, in
}

// TestMaxErrBoundHolds: the error-bounded mode's contract, verified
// end-to-end through an independent decompression, for each codec.
func TestMaxErrBoundHolds(t *testing.T) {
	dims := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	w := coherentWindow(dims, 8, 0.4)
	for _, cdc := range []codec.Codec{codec.Sparse(), codec.Entropy()} {
		const bound = 1e-2
		o := maxErrOpts(bound)
		o.Codec = cdc
		c, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		recon, cw, err := c.RoundTrip(w)
		if err != nil {
			t.Fatalf("%s: %v", cdc.Name(), err)
		}
		bg, _ := maxAbsErrSplit(t, w, recon, nil)
		if bg > bound {
			t.Fatalf("%s: achieved max error %g exceeds bound %g", cdc.Name(), bg, bound)
		}
		if cw.MaxErrAchieved > bound || cw.MaxErrAchieved <= 0 {
			t.Fatalf("%s: recorded achieved error %g inconsistent with bound %g", cdc.Name(), cw.MaxErrAchieved, bound)
		}
		// The mode must actually compress: a bound this loose should drop
		// a large share of coefficients.
		total := dims.Len() * 8
		if kept := cw.RetainedCoefficients(); kept >= total/2 {
			t.Fatalf("%s: error-bounded mode kept %d of %d coefficients — thresholds not applied?", cdc.Name(), kept, total)
		}
	}
}

// TestMaxErrROITighterBound: the ROI box must meet its stricter bound
// while the background meets the looser one, and the ROI must come out
// at least as accurate as the background.
func TestMaxErrROITighterBound(t *testing.T) {
	dims := grid.Dims{Nx: 24, Ny: 24, Nz: 24}
	w := coherentWindow(dims, 8, 0.8)
	roi := &ROIBounds{X0: 8, Y0: 8, Z0: 8, X1: 16, Y1: 16, Z1: 16, MaxErr: 5e-4}
	o := maxErrOpts(2e-2)
	o.ROI = roi
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	recon, cw, err := c.RoundTrip(w)
	if err != nil {
		t.Fatal(err)
	}
	bg, in := maxAbsErrSplit(t, w, recon, roi)
	if bg > o.MaxErr {
		t.Fatalf("background error %g exceeds bound %g", bg, o.MaxErr)
	}
	if in > roi.MaxErr {
		t.Fatalf("ROI error %g exceeds ROI bound %g", in, roi.MaxErr)
	}
	if cw.ROIMaxErrAchieved > roi.MaxErr {
		t.Fatalf("recorded ROI error %g exceeds ROI bound %g", cw.ROIMaxErrAchieved, roi.MaxErr)
	}
}

// TestMaxErrProgressive: error-bounded thresholds compose with the
// level-major layout — the verification loop runs on the grouped
// encoding, so the stored stream is the verified one.
func TestMaxErrProgressive(t *testing.T) {
	dims := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	w := coherentWindow(dims, 8, 0.1)
	const bound = 1e-2
	o := maxErrOpts(bound)
	o.Progressive = true
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	recon, cw, err := c.RoundTrip(w)
	if err != nil {
		t.Fatal(err)
	}
	if !cw.Progressive() {
		t.Fatal("progressive option ignored in error-bounded mode")
	}
	bg, _ := maxAbsErrSplit(t, w, recon, nil)
	if bg > bound {
		t.Fatalf("achieved max error %g exceeds bound %g", bg, bound)
	}
}

// TestMaxErrUnreachableBound: a bound below the sparse codec's float32
// quantization floor must fail typed instead of looping forever or
// silently missing the bound.
func TestMaxErrUnreachableBound(t *testing.T) {
	dims := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	w := coherentWindow(dims, 4, 0.0)
	o := maxErrOpts(1e-12)
	o.WindowSize = 4
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compress(context.Background(), c, w, Copy); err == nil {
		t.Fatal("accepted an error bound below the codec quantization floor")
	}
}

// TestMaxErrOptionValidation covers the new Options surface.
func TestMaxErrOptionValidation(t *testing.T) {
	bad := []Options{
		func() Options { o := DefaultOptions(); o.MaxErr = -1; return o }(),
		func() Options {
			o := DefaultOptions()
			o.ROI = &ROIBounds{X0: 0, Y0: 0, Z0: 0, X1: 4, Y1: 4, Z1: 4, MaxErr: 1e-3}
			return o // ROI without MaxErr mode
		}(),
		func() Options {
			o := DefaultOptions()
			o.MaxErr = 1e-2
			o.ROI = &ROIBounds{X0: 4, Y0: 0, Z0: 0, X1: 4, Y1: 4, Z1: 4, MaxErr: 1e-3}
			return o // empty box
		}(),
		func() Options {
			o := DefaultOptions()
			o.MaxErr = 1e-3
			o.ROI = &ROIBounds{X0: 0, Y0: 0, Z0: 0, X1: 4, Y1: 4, Z1: 4, MaxErr: 1e-2}
			return o // ROI looser than background
		}(),
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	good := DefaultOptions()
	good.MaxErr = 1e-2
	good.ROI = &ROIBounds{X0: 1, Y0: 1, Z0: 1, X1: 2, Y1: 2, Z1: 2, MaxErr: 1e-3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid ROI options rejected: %v", err)
	}
}
