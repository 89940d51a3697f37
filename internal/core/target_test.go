package core

import (
	"context"
	"math"
	"testing"

	"stwave/internal/grid"
	"stwave/internal/metrics"
)

func TestCompressToTargetMeetsBound(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	w := coherentWindow(d, 20, 0.4)
	opts := DefaultOptions()
	for _, target := range []float64{1e-2, 1e-3, 1e-4} {
		cw, achieved, err := CompressToTarget(context.Background(), opts, w, target, 1, 512)
		if err != nil {
			t.Fatalf("target %g: %v", target, err)
		}
		if achieved > target {
			t.Errorf("target %g: achieved NRMSE %g exceeds target", target, achieved)
		}
		// Verify the reported error against a fresh decompression.
		recon, err := Decompress(cw)
		if err != nil {
			t.Fatal(err)
		}
		ac := metrics.NewAccumulator()
		for i := range w.Slices {
			if err := ac.Add(w.Slices[i].Data, recon.Slices[i].Data); err != nil {
				t.Fatal(err)
			}
		}
		if math.Abs(ac.NRMSE()-achieved) > 1e-12 {
			t.Errorf("target %g: reported %g but recomputed %g", target, achieved, ac.NRMSE())
		}
	}
}

func TestCompressToTargetPrefersTighterRatios(t *testing.T) {
	d := grid.Dims{Nx: 12, Ny: 12, Nz: 12}
	w := coherentWindow(d, 20, 0.2)
	opts := DefaultOptions()
	loose, _, err := CompressToTarget(context.Background(), opts, w, 1e-2, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	tight, _, err := CompressToTarget(context.Background(), opts, w, 1e-5, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	if loose.RetainedCoefficients() >= tight.RetainedCoefficients() {
		t.Errorf("loose target retained %d coefficients, tight retained %d — loose should keep fewer",
			loose.RetainedCoefficients(), tight.RetainedCoefficients())
	}
}

func TestCompressToTargetUnreachable(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	w := coherentWindow(d, 10, 0.1)
	opts := DefaultOptions()
	opts.WindowSize = 10
	// With minRatio 64 even the loosest setting cannot hit 1e-12 NRMSE.
	cw, achieved, err := CompressToTarget(context.Background(), opts, w, 1e-12, 64, 512)
	if err == nil {
		t.Fatalf("expected unreachable-target error, got NRMSE %g", achieved)
	}
	if cw == nil {
		t.Error("unreachable target must still return the best-effort window")
	}
}

func TestCompressToTargetValidation(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	w := coherentWindow(d, 10, 0)
	opts := DefaultOptions()
	opts.WindowSize = 10
	if _, _, err := CompressToTarget(context.Background(), opts, w, 0, 1, 128); err == nil {
		t.Error("expected error for zero target")
	}
	if _, _, err := CompressToTarget(context.Background(), opts, w, 1e-3, 0.5, 128); err == nil {
		t.Error("expected error for minRatio < 1")
	}
	if _, _, err := CompressToTarget(context.Background(), opts, w, 1e-3, 128, 8); err == nil {
		t.Error("expected error for inverted range")
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
