package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"testing"

	"stwave/internal/codec"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/transform"
)

func maxErrOpts(bound float64) Options {
	o := DefaultOptions()
	o.WindowSize = 8
	o.MaxErr = bound
	o.Workers = 2
	return o
}

// maxAbsErrSplit measures the achieved maximum absolute error inside and
// outside the ROI box (background only when roi is nil), taking each
// difference after widening both samples to float64.
func maxAbsErrSplit[F num.Float](t *testing.T, orig, recon *grid.WindowOf[F], roi *ROIBounds) (bg, in float64) {
	t.Helper()
	d := orig.Dims
	for i := range orig.Slices {
		a, b := orig.Slices[i].Data, recon.Slices[i].Data
		idx := 0
		for z := 0; z < d.Nz; z++ {
			for y := 0; y < d.Ny; y++ {
				for x := 0; x < d.Nx; x++ {
					e := math.Abs(float64(a[idx]) - float64(b[idx]))
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

// maxErrSerialized serializes cw, reads it back, reconstructs it at F
// and returns its brute-force error against raw outside and inside roi.
func maxErrSerialized[F num.Float](t *testing.T, cw *CompressedWindow, raw *grid.WindowOf[F], roi *ROIBounds) (bg, in float64) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCompressedWindow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := Reconstruct[F](context.Background(), back, Query{MaxLevel: All, Slice: All})
	if err != nil {
		t.Fatal(err)
	}
	return maxAbsErrSplit(t, raw, recon, roi)
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
	if _, err := Compress(context.Background(), c, w, Copy); !errors.Is(err, ErrBoundUnreachable) {
		t.Fatalf("bound below the codec quantization floor: got %v, want ErrBoundUnreachable", err)
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
		func() Options { o := DefaultOptions(); o.MaxErr = math.NaN(); return o }(),
		func() Options { o := DefaultOptions(); o.MaxErr = math.Inf(1); return o }(),
		func() Options {
			o := DefaultOptions()
			o.MaxErr = 1e-2
			o.ROI = &ROIBounds{X0: 0, Y0: 0, Z0: 0, X1: 4, Y1: 4, Z1: 4, MaxErr: math.NaN()}
			return o // NaN passes both ordered comparisons of the ROI range check
		}(),
		func() Options {
			o := DefaultOptions()
			o.MaxErr = math.Inf(1)
			o.ROI = &ROIBounds{X0: 0, Y0: 0, Z0: 0, X1: 4, Y1: 4, Z1: 4, MaxErr: math.Inf(1)}
			return o
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

// TestMaxErrBytesPinned: float64 error-bounded windows serialize to the
// bytes of the earlier dense save/zero/restore verify loop (SHA-256s
// recorded from it) over {sparse, entropy} x {legacy, progressive} x
// {no ROI, ROI}, whether Compress reads a Copy or works InPlace, and an
// InPlace call leaves w holding exactly the Forward4D coefficients.
func TestMaxErrBytesPinned(t *testing.T) {
	want := map[string]string{
		"sparse/progressive=false/roi=false":  "5c8b2648a1da114668c0e43fefbf7acb2580ab71c3033227a37e0fa3e2aa8276",
		"sparse/progressive=false/roi=true":   "290c684391d4a45452b70ea4c1555d54d17251648f0ce8647e823b3d8f0216fc",
		"sparse/progressive=true/roi=false":   "625678ec98736eee17806480cc9a10fd1cb2ef6b726bcde2a4fcfc3a3d198b9f",
		"sparse/progressive=true/roi=true":    "117aaebec5bb900acbc1a398bad1a78f1d070c4c0bef1a6ca730e59193ecd43f",
		"entropy/progressive=false/roi=false": "03f2e08fb5522cc1482b28382417b0192cd144029cf6794c66a762c93f208d7b",
		"entropy/progressive=false/roi=true":  "29cc2341f08debdbb1910612041abba2aa54a012d1a03bca9195f9e09c534272",
		"entropy/progressive=true/roi=false":  "50baa5ae5e4c32c154ac98d603731279337b14bcae8962ff9879ec135c0c0d24",
		"entropy/progressive=true/roi=true":   "474b60add884e2e40254878d0bdccadf9555106598a16d71dfd65a344b704b59",
	}
	dims := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	raw := coherentWindow(dims, 8, 0.3)
	for _, cdc := range []codec.Codec{codec.Sparse(), codec.Entropy()} {
		for _, prog := range []bool{false, true} {
			for _, roi := range []bool{false, true} {
				name := fmt.Sprintf("%s/progressive=%v/roi=%v", cdc.Name(), prog, roi)
				o := maxErrOpts(1e-2)
				o.Codec = cdc
				o.Progressive = prog
				if roi {
					o.ROI = &ROIBounds{X0: 4, Y0: 4, Z0: 4, X1: 12, Y1: 12, Z1: 12, MaxErr: 2e-3}
				}
				c, err := New(o)
				if err != nil {
					t.Fatal(err)
				}
				w := raw.Clone()
				for _, in := range []Input{Copy, InPlace} {
					cw, err := Compress(context.Background(), c, w, in)
					if err != nil {
						t.Fatalf("%s input %d: %v", name, in, err)
					}
					var buf bytes.Buffer
					if _, err := cw.WriteTo(&buf); err != nil {
						t.Fatal(err)
					}
					if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want[name] {
						t.Errorf("%s input %d: SHA-256 %s, want %s", name, in, got, want[name])
					}
				}
				ref := raw.Clone()
				if err := transform.Forward4D(ref, o.spec(dims, raw.Len())); err != nil {
					t.Fatal(err)
				}
				for i := range ref.Slices {
					for j, v := range ref.Slices[i].Data {
						if math.Float64bits(w.Slices[i].Data[j]) != math.Float64bits(v) {
							t.Fatalf("%s: InPlace left slice %d sample %d = %g, Forward4D gives %g", name, i, j, w.Slices[i].Data[j], v)
						}
					}
				}
			}
		}
	}
}

// TestMaxErrRejectsCoefficients: Coefficients is the one input the
// error-bounded mode refuses, since there are no samples to verify
// against; w is left untouched.
func TestMaxErrRejectsCoefficients(t *testing.T) {
	dims := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	w := coherentWindow(dims, 4, 0.2)
	before := w.Clone()
	c, err := New(maxErrOpts(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compress(context.Background(), c, w, Coefficients); err == nil {
		t.Fatal("MaxErr accepted Coefficients input")
	}
	for i := range w.Slices {
		for j, v := range w.Slices[i].Data {
			if math.Float64bits(v) != math.Float64bits(before.Slices[i].Data[j]) {
				t.Fatal("rejected compress modified w")
			}
		}
	}
}
