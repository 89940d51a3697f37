package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/transform"
)

// levelsOf reconstructs every slice of cw from level groups 0..maxLevel.
func levelsOf[F num.Float](cw *CompressedWindow, maxLevel int) (*grid.WindowOf[F], error) {
	return Reconstruct[F](context.Background(), cw, Query{MaxLevel: maxLevel, Slice: All})
}

// sliceOf reconstructs one full-resolution slice of cw.
func sliceOf[F num.Float](cw *CompressedWindow, slice int) (*grid.Field3DOf[F], error) {
	w, err := Reconstruct[F](context.Background(), cw, Query{MaxLevel: All, Slice: slice})
	if err != nil {
		return nil, err
	}
	return w.Slices[0], nil
}

// queryWindow compresses a coherent window at precision F. Its slice
// times are not integers, so a slice's stored time cannot pass for its
// index.
func queryWindow[F num.Float](t *testing.T, o Options, d grid.Dims, slices int) *CompressedWindow {
	t.Helper()
	src := coherentWindow(d, slices, 0.4)
	w := grid.NewWindowOf[F](d)
	for i, f := range src.Slices {
		g := grid.NewField3DOf[F](d.Nx, d.Ny, d.Nz)
		for j, v := range f.Data {
			g.Data[j] = F(v)
		}
		if err := w.Append(g, 100+0.5*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	o.Precision = precisionOf[F]()
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := CompressWindowOf(context.Background(), c, w)
	if err != nil {
		t.Fatal(err)
	}
	return cw
}

// firstBitDiff returns the first index where a and b differ in bits, or -1.
func firstBitDiff[F num.Float](a, b []F) int {
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return i
		}
	}
	return -1
}

// checkQueries walks every (MaxLevel, Slice) point of cw's query space:
// each one-slice answer is bit-equal to the matching slice of the
// whole-window answer at the same level, carries the slice's stored time,
// and has the level's coarse extents; MaxLevel = SpatialLevels is the
// full decode; legacy windows refuse MaxLevel < SpatialLevels.
func checkQueries[F num.Float](t *testing.T, label string, cw *CompressedWindow) {
	t.Helper()
	ctx := context.Background()
	L, T := cw.SpatialLevels, cw.NumSlices()
	full, err := Reconstruct[F](ctx, cw, Query{MaxLevel: All, Slice: All})
	if err != nil {
		t.Fatalf("%s: full: %v", label, err)
	}
	for level := All; level <= L; level++ {
		depth := L
		if level != All {
			depth = level
		}
		whole, err := Reconstruct[F](ctx, cw, Query{MaxLevel: level, Slice: All})
		if depth < L && !cw.Progressive() {
			if err != ErrNotProgressive {
				t.Fatalf("%s: legacy level %d: %v, want ErrNotProgressive", label, level, err)
			}
			if _, err := Reconstruct[F](ctx, cw, Query{MaxLevel: level, Slice: 0}); err != ErrNotProgressive {
				t.Fatalf("%s: legacy level %d slice 0: %v, want ErrNotProgressive", label, level, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: level %d: %v", label, level, err)
		}
		if want := transform.CoarseDims(cw.Dims, L-depth); whole.Dims != want || whole.Len() != T {
			t.Fatalf("%s: level %d: %v x %d slices, want %v x %d", label, level, whole.Dims, whole.Len(), want, T)
		}
		for s := 0; s < T; s++ {
			if depth == L {
				if i := firstBitDiff(whole.Slices[s].Data, full.Slices[s].Data); i >= 0 {
					t.Fatalf("%s: level %d slice %d sample %d differs from the full decode", label, level, s, i)
				}
			}
			one, err := Reconstruct[F](ctx, cw, Query{MaxLevel: level, Slice: s})
			if err != nil {
				t.Fatalf("%s: level %d slice %d: %v", label, level, s, err)
			}
			if one.Len() != 1 || one.Dims != whole.Dims || one.Slices[0].Dims != whole.Dims {
				t.Fatalf("%s: level %d slice %d: %d slices of %v, want 1 of %v", label, level, s, one.Len(), one.Dims, whole.Dims)
			}
			if one.Times[0] != cw.Times[s] {
				t.Fatalf("%s: level %d slice %d: time %g, stored %g", label, level, s, one.Times[0], cw.Times[s])
			}
			if i := firstBitDiff(one.Slices[0].Data, whole.Slices[s].Data); i >= 0 {
				t.Fatalf("%s: level %d slice %d sample %d differs from the whole-window answer", label, level, s, i)
			}
		}
	}
	for _, q := range []Query{{MaxLevel: L + 1, Slice: All}, {MaxLevel: -2, Slice: All}, {MaxLevel: All, Slice: T}, {MaxLevel: All, Slice: -2}} {
		if _, err := Reconstruct[F](ctx, cw, q); err == nil {
			t.Fatalf("%s: accepted out-of-range query %+v", label, q)
		}
	}
}

// checkLayouts runs checkQueries on cw and, when cw is progressive, again
// with its finest level group shed.
func checkLayouts[F num.Float](t *testing.T, label string, cw *CompressedWindow) {
	t.Helper()
	checkQueries[F](t, label, cw)
	if !cw.Progressive() {
		return
	}
	shed, ok := cw.DropFinestLevel()
	if !ok {
		t.Fatalf("%s: no level group to shed", label)
	}
	checkQueries[F](t, label+"/shed", shed)
}

// TestReconstructQueryEquivalence proves the query space is consistent
// for every codec, precision and layout (legacy, progressive, and
// progressive with its finest group shed).
func TestReconstructQueryEquivalence(t *testing.T) {
	for _, cdc := range progressiveCodecs {
		for _, g := range progressiveGeometries[:2] {
			for _, progressive := range []bool{false, true} {
				o := progressiveOpts(cdc, g.slices)
				o.Progressive = progressive
				label := fmt.Sprintf("%s/%s/progressive=%v", cdc.Name(), g.name, progressive)
				checkLayouts[float64](t, label+"/f64", queryWindow[float64](t, o, g.dims, g.slices))
				checkLayouts[float32](t, label+"/f32", queryWindow[float32](t, o, g.dims, g.slices))
			}
		}
	}
}
