package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"stwave/internal/grid"
	"stwave/internal/metrics"
	"stwave/internal/num"
	"stwave/internal/obs"
)

// targetOpts is the paper's 4D configuration at window length slices,
// rate-controlled by target NRMSE tau.
func targetOpts(slices int, tau float64) Options {
	o := DefaultOptions()
	o.WindowSize = slices
	o.TargetNRMSE = tau
	o.Workers = 2
	return o
}

// freshNRMSE serializes cw, reads it back and reconstructs it at
// precision F, and returns the NRMSE of that fresh decode against raw,
// both widened to float64.
func freshNRMSE[F num.Float](t *testing.T, cw *CompressedWindow, raw *grid.WindowOf[F]) float64 {
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
	ac := metrics.NewAccumulator()
	for i, f := range raw.Slices {
		a, b := make([]float64, len(f.Data)), make([]float64, len(f.Data))
		for j := range a {
			a[j], b[j] = float64(f.Data[j]), float64(recon.Slices[i].Data[j])
		}
		if err := ac.Add(a, b); err != nil {
			t.Fatal(err)
		}
	}
	return ac.NRMSE()
}

// checkTarget compresses raw under o (TargetNRMSE set) and checks that a
// fresh decode meets the target, that the compress ran one forward
// transform, and that the window is the ratio-mode window at the Ratio it
// records. It returns the window.
func checkTarget[F num.Float](t *testing.T, o Options, raw *grid.WindowOf[F]) *CompressedWindow {
	t.Helper()
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := obs.StartRoot(context.Background(), "test")
	cw, err := Compress(ctx, c, raw, Copy)
	if err != nil {
		t.Fatalf("%v target %g: %v", o.Mode, o.TargetNRMSE, err)
	}
	root.End()
	forwards := 0
	root.Tree().Walk(func(n obs.SpanTree, _ int) {
		if n.Name == "xform.forward_3d" {
			forwards++
		}
	})
	if forwards != 1 {
		t.Errorf("%v target %g: %d forward transforms, want 1", o.Mode, o.TargetNRMSE, forwards)
	}
	if got := freshNRMSE(t, cw, raw); !(got <= o.TargetNRMSE) {
		t.Errorf("%v target %g: fresh decode NRMSE %g", o.Mode, o.TargetNRMSE, got)
	}
	ro := o
	ro.TargetNRMSE, ro.Ratio = 0, cw.Opts.Ratio
	rc, err := New(ro)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Compress(context.Background(), rc, raw, Copy)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if _, err := cw.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%v target %g: bytes differ from ratio mode at the recorded ratio %g", o.Mode, o.TargetNRMSE, cw.Opts.Ratio)
	}
	return cw
}

// TestCompressToTargetMeetsBound: at both precisions, in 4D and in 3D
// (one keep count per slice), every target is met on a fresh decode.
func TestCompressToTargetMeetsBound(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	for _, tau := range []float64{1e-2, 1e-3, 1e-4} {
		checkTarget(t, targetOpts(20, tau), coherentWindow(d, 20, 0.4))
		checkTarget(t, targetOpts(20, tau), coherentWindow32(d, 20, 0.4))
		o := targetOpts(20, tau)
		o.Mode = Spatial3D
		checkTarget(t, o, coherentWindow(d, 3, 0.4))
	}
}

// TestCompressToTargetPrefersTighterRatios: a looser target keeps
// fewer coefficients, at both precisions.
func TestCompressToTargetPrefersTighterRatios(t *testing.T) {
	d := grid.Dims{Nx: 12, Ny: 12, Nz: 12}
	pairs := [][2]*CompressedWindow{
		{checkTarget(t, targetOpts(20, 1e-2), coherentWindow(d, 20, 0.2)), checkTarget(t, targetOpts(20, 1e-5), coherentWindow(d, 20, 0.2))},
		{checkTarget(t, targetOpts(20, 1e-2), coherentWindow32(d, 20, 0.2)), checkTarget(t, targetOpts(20, 1e-4), coherentWindow32(d, 20, 0.2))},
	}
	for i, p := range pairs {
		if loose, tight := p[0].RetainedCoefficients(), p[1].RetainedCoefficients(); loose >= tight {
			t.Errorf("pair %d: loose target retained %d coefficients, tight retained %d; loose should keep fewer", i, loose, tight)
		}
	}
}

// TestCompressToTargetUnreachable: a target under the sparse codec's
// float32 storage floor fails with ErrBoundUnreachable at both precisions,
// and so does any target on a constant window.
func TestCompressToTargetUnreachable(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	c, err := New(targetOpts(10, 1e-12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compress(context.Background(), c, coherentWindow(d, 10, 0.1), Copy); !errors.Is(err, ErrBoundUnreachable) {
		t.Errorf("float64: got %v, want ErrBoundUnreachable", err)
	}
	if _, err := Compress(context.Background(), c, coherentWindow32(d, 10, 0.1), Copy); !errors.Is(err, ErrBoundUnreachable) {
		t.Errorf("float32: got %v, want ErrBoundUnreachable", err)
	}
	// A constant window has a zero range, so any reconstruction error is
	// an infinite NRMSE.
	flat := coherentWindow(d, 10, 0)
	for _, f := range flat.Slices {
		f.Fill(1.0 / 3)
	}
	c, err = New(targetOpts(10, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compress(context.Background(), c, flat, Copy); !errors.Is(err, ErrBoundUnreachable) {
		t.Errorf("constant window: got %v, want ErrBoundUnreachable", err)
	}
}

// TestCompressToTargetValidation: a negative or non-finite target is
// rejected, and so is Coefficients input, which has no samples to measure
// against.
func TestCompressToTargetValidation(t *testing.T) {
	for _, tau := range []float64{-1e-3, math.NaN(), math.Inf(1)} {
		if _, err := New(targetOpts(10, tau)); err == nil {
			t.Errorf("target %g accepted", tau)
		}
	}
	c, err := New(targetOpts(10, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compress(context.Background(), c, coherentWindow(grid.Dims{Nx: 8, Ny: 8, Nz: 8}, 10, 0), Coefficients); err == nil {
		t.Error("TargetNRMSE accepted Coefficients input")
	}
}

func TestDecompressSliceMatchesFull(t *testing.T) {
	d := grid.Dims{Nx: 12, Ny: 10, Nz: 8}
	w := coherentWindow(d, 18, 0.6)
	opts := DefaultOptions()
	opts.WindowSize = 18
	opts.Ratio = 16
	comp, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := Compress(context.Background(), comp, w, Copy)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(cw)
	if err != nil {
		t.Fatal(err)
	}
	for _, slice := range []int{0, 5, 17} {
		single, err := sliceOf[float64](cw, slice)
		if err != nil {
			t.Fatal(err)
		}
		for i := range single.Data {
			if single.Data[i] != full.Slices[slice].Data[i] {
				t.Fatalf("slice %d sample %d: one-slice query %g != full %g",
					slice, i, single.Data[i], full.Slices[slice].Data[i])
			}
		}
	}
}

func TestDecompressSliceWorksFor3DMode(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	w := coherentWindow(d, 1, 0)
	opts := Options{Mode: Spatial3D, SpatialKernel: DefaultOptions().SpatialKernel, Ratio: 8, SpatialLevels: -1}
	comp, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := Compress(context.Background(), comp, w, Copy)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sliceOf[float64](cw, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(cw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if f.Data[i] != full.Slices[0].Data[i] {
			t.Fatal("3D-mode one-slice query differs from full decompress")
		}
	}
}

func TestDecompressSliceValidation(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	w := coherentWindow(d, 5, 0)
	opts := DefaultOptions()
	opts.WindowSize = 5
	comp, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := Compress(context.Background(), comp, w, Copy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sliceOf[float64](cw, -2); err == nil { // -1 is All
		t.Error("expected error for negative index")
	}
	if _, err := sliceOf[float64](cw, 5); err == nil {
		t.Error("expected error for out-of-range index")
	}
}
