package core

import (
	"context"
	"math"
	"testing"

	"stwave/internal/grid"
)

func boundaryTestWindow(d grid.Dims, slices int) *grid.Window {
	w := grid.NewWindow(d)
	for ts := 0; ts < slices; ts++ {
		f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
		for i := range f.Data {
			f.Data[i] = math.Sin(float64(i)*0.07 + float64(ts)*0.31)
		}
		if err := w.Append(f, float64(ts)); err != nil {
			panic(err)
		}
	}
	return w
}

// TestDecompressSliceWindowBoundaries exercises the positions where the
// temporal transform's boundary handling matters most: the first and last
// slice of a full window, and every slice of short tail windows down to a
// single slice.
func TestDecompressSliceWindowBoundaries(t *testing.T) {
	d := grid.Dims{Nx: 10, Ny: 10, Nz: 10}
	opts := DefaultOptions()
	opts.WindowSize = 8
	opts.Ratio = 8
	comp, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, slices := range []int{8, 3, 2, 1} {
		cw, err := Compress(context.Background(), comp, boundaryTestWindow(d, slices), Copy)
		if err != nil {
			t.Fatalf("window of %d slices: %v", slices, err)
		}
		full, err := Decompress(cw)
		if err != nil {
			t.Fatal(err)
		}
		for _, slice := range []int{0, slices - 1} {
			single, err := sliceOf[float64](cw, slice)
			if err != nil {
				t.Fatalf("%d slices, slice %d: %v", slices, slice, err)
			}
			for i := range single.Data {
				if math.Abs(single.Data[i]-full.Slices[slice].Data[i]) > 1e-12 {
					t.Fatalf("%d slices, slice %d, sample %d: single %g != full %g",
						slices, slice, i, single.Data[i], full.Slices[slice].Data[i])
				}
			}
		}
	}
}

// TestDecompressSliceOneSliceWindow pins down the degenerate case: a
// 1-slice window has no temporal structure at all, and single-slice access
// must still reconstruct it exactly as Decompress does.
func TestDecompressSliceOneSliceWindow(t *testing.T) {
	d := grid.Dims{Nx: 12, Ny: 12, Nz: 12}
	opts := DefaultOptions()
	opts.Ratio = 4
	comp, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := Compress(context.Background(), comp, boundaryTestWindow(d, 1), Copy)
	if err != nil {
		t.Fatal(err)
	}
	if cw.TemporalLevels != 0 {
		t.Errorf("1-slice window has %d temporal levels, want 0", cw.TemporalLevels)
	}
	full, err := Decompress(cw)
	if err != nil {
		t.Fatal(err)
	}
	single, err := sliceOf[float64](cw, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range single.Data {
		if single.Data[i] != full.Slices[0].Data[i] {
			t.Fatalf("sample %d: %g != %g", i, single.Data[i], full.Slices[0].Data[i])
		}
	}
}

// TestDecompressSliceTemporalSubsampling reconstructs every other slice
// (temporal resolution 1/2, the paper's Figure 2c access pattern) as
// one-slice queries and checks agreement with the slices of one full
// Decompress.
func TestDecompressSliceTemporalSubsampling(t *testing.T) {
	d := grid.Dims{Nx: 10, Ny: 10, Nz: 10}
	opts := DefaultOptions()
	opts.WindowSize = 8
	opts.Ratio = 16
	comp, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	orig := boundaryTestWindow(d, 8)
	cw, err := Compress(context.Background(), comp, orig, Copy)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(cw)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := full.Subsample(2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < sub.Len(); k++ {
		slice := 2 * k
		single, err := sliceOf[float64](cw, slice)
		if err != nil {
			t.Fatal(err)
		}
		for i := range single.Data {
			if math.Abs(single.Data[i]-sub.Slices[k].Data[i]) > 1e-12 {
				t.Fatalf("slice %d sample %d: single %g != subsampled full %g",
					slice, i, single.Data[i], sub.Slices[k].Data[i])
			}
		}
	}
}
