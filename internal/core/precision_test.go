package core

import (
	"bytes"
	"math"
	"testing"

	"stwave/internal/codec"
	"stwave/internal/compress"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/par"
	"stwave/internal/wavelet"
)

// thresholdOf is the dense, in-place form of selectOf: the same budgets,
// applied by compress.ThresholdSlices. The golden test hashes its slabs.
func thresholdOf[F num.Float](o Options, datas [][]F, workers int) error {
	if o.Mode == Spatial3D || o.PerSliceBudget {
		if len(datas) == 0 {
			return nil
		}
		keep, err := compress.KeepCount(len(datas[0]), o.Ratio)
		if err != nil {
			return err
		}
		par.For(len(datas), workers, 1, func(start, end int) {
			for i := start; i < end; i++ {
				compress.ThresholdSlices(datas[i:i+1], keep, 1)
			}
		})
		return nil
	}
	total := 0
	for _, d := range datas {
		total += len(d)
	}
	keep, err := compress.KeepCount(total, o.Ratio)
	if err != nil {
		return err
	}
	compress.ThresholdSlices(datas, keep, workers)
	return nil
}

// coherentWindow32 is coherentWindow filled at float32: the same smooth
// spatiotemporal field, narrowed once at the fill point the way a
// single-precision solver would produce it.
func coherentWindow32(d grid.Dims, slices int, phase float64) *grid.Window32 {
	w := grid.NewWindowOf[float32](d)
	for t := 0; t < slices; t++ {
		f := grid.NewField3DOf[float32](d.Nx, d.Ny, d.Nz)
		tt := float64(t) * 0.05
		for z := 0; z < d.Nz; z++ {
			for y := 0; y < d.Ny; y++ {
				for x := 0; x < d.Nx; x++ {
					fx := float64(x) / float64(d.Nx)
					fy := float64(y) / float64(d.Ny)
					fz := float64(z) / float64(d.Nz)
					v := math.Sin(2*math.Pi*(fx+tt)+phase)*math.Cos(2*math.Pi*fy) +
						0.5*math.Sin(2*math.Pi*(2*fz-tt))
					f.Set(x, y, z, float32(v))
				}
			}
		}
		if err := w.Append(f, float64(t)); err != nil {
			panic(err)
		}
	}
	return w
}

func windows32BitIdentical(t *testing.T, a, b *grid.Window32, label string) {
	t.Helper()
	if a.Dims != b.Dims || len(a.Slices) != len(b.Slices) {
		t.Fatalf("%s: shape mismatch: %v/%d vs %v/%d", label, a.Dims, len(a.Slices), b.Dims, len(b.Slices))
	}
	for i := range a.Slices {
		av, bv := a.Slices[i].Data, b.Slices[i].Data
		for j := range av {
			if math.Float32bits(av[j]) != math.Float32bits(bv[j]) {
				t.Fatalf("%s: slice %d sample %d differs: %g vs %g", label, i, j, av[j], bv[j])
			}
		}
	}
}

// window32NRMSE computes the range-normalized RMSE between two float32
// windows in float64 accumulation.
func window32NRMSE(t *testing.T, orig, recon *grid.Window32) float64 {
	t.Helper()
	var sum float64
	var n int
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range orig.Slices {
		a, b := orig.Slices[i].Data, recon.Slices[i].Data
		if len(a) != len(b) {
			t.Fatalf("slice %d length mismatch", i)
		}
		for j := range a {
			d := float64(a[j]) - float64(b[j])
			sum += d * d
			n++
			lo = math.Min(lo, float64(a[j]))
			hi = math.Max(hi, float64(a[j]))
		}
	}
	if hi <= lo {
		return 0
	}
	return math.Sqrt(sum/float64(n)) / (hi - lo)
}

func TestPrecisionStringsAndParse(t *testing.T) {
	if Float64.String() != "f64" || Float32.String() != "f32" {
		t.Fatalf("precision strings: %q %q", Float64.String(), Float32.String())
	}
	if Float64.SampleBytes() != 8 || Float32.SampleBytes() != 4 {
		t.Fatalf("sample bytes: %d %d", Float64.SampleBytes(), Float32.SampleBytes())
	}
	for _, tc := range []struct {
		in   string
		want Precision
	}{
		{"", Float64}, {"f64", Float64}, {"float64", Float64},
		{"f32", Float32}, {"float32", Float32},
	} {
		got, err := ParsePrecision(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("ParsePrecision accepted f16")
	}
}

func TestFloat32CompressSerializeRoundTrip(t *testing.T) {
	d := grid.Dims{Nx: 14, Ny: 12, Nz: 10}
	w := coherentWindow32(d, 10, 0.3)
	for _, cdc := range []codec.Codec{codec.Sparse(), codec.Entropy()} {
		o := DefaultOptions()
		o.WindowSize = 10
		o.Ratio = 8
		o.Codec = cdc
		o.Precision = Float32
		c, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		cw, err := c.CompressWindow32(w)
		if err != nil {
			t.Fatalf("%s: compress32: %v", cdc.Name(), err)
		}
		if cw.Precision != Float32 {
			t.Fatalf("%s: compressed window precision = %v, want Float32", cdc.Name(), cw.Precision)
		}

		var buf bytes.Buffer
		if _, err := cw.WriteTo(&buf); err != nil {
			t.Fatalf("%s: write: %v", cdc.Name(), err)
		}
		raw := buf.Bytes()
		if raw[4]&0x40 == 0 {
			t.Fatalf("%s: header byte 4 = %#x, precision flag not set", cdc.Name(), raw[4])
		}

		wi, err := ReadWindowInfo(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: window info: %v", cdc.Name(), err)
		}
		if wi.Precision != Float32 {
			t.Fatalf("%s: WindowInfo precision = %v, want Float32", cdc.Name(), wi.Precision)
		}
		if want := int64(d.Len()) * 10 * 4; wi.RawSizeBytes() != want {
			t.Fatalf("%s: raw size %d, want %d (4 bytes/sample)", cdc.Name(), wi.RawSizeBytes(), want)
		}

		back, err := ReadCompressedWindow(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: read: %v", cdc.Name(), err)
		}
		if back.Precision != Float32 || back.Opts.Precision != Float32 {
			t.Fatalf("%s: deserialized precision %v/%v, want Float32", cdc.Name(), back.Precision, back.Opts.Precision)
		}

		a, err := Decompress32(cw)
		if err != nil {
			t.Fatalf("%s: decompress32: %v", cdc.Name(), err)
		}
		b, err := Decompress32(back)
		if err != nil {
			t.Fatalf("%s: decompress32 (deserialized): %v", cdc.Name(), err)
		}
		windows32BitIdentical(t, a, b, cdc.Name()+" f32 serialize roundtrip")
		if e := window32NRMSE(t, w, a); e > 0.05 {
			t.Fatalf("%s: f32 NRMSE %g too large", cdc.Name(), e)
		}
	}
}

func TestLegacyFloat64HeaderHasNoPrecisionFlag(t *testing.T) {
	d := grid.Dims{Nx: 10, Ny: 8, Nz: 6}
	w := coherentWindow(d, 8, 0)
	o := DefaultOptions()
	o.WindowSize = 8
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := c.CompressWindow(w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if raw[4]&0x40 != 0 {
		t.Fatalf("float64 window set the precision flag: header byte 4 = %#x", raw[4])
	}
	back, err := ReadCompressedWindow(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if back.Precision != Float64 {
		t.Fatalf("float64 container read back as %v", back.Precision)
	}
}

func TestFloat32ProgressiveLevels(t *testing.T) {
	d := grid.Dims{Nx: 13, Ny: 11, Nz: 9}
	w := coherentWindow32(d, 10, 0.7)
	o := DefaultOptions()
	o.WindowSize = 10
	o.Ratio = 8
	o.Progressive = true
	o.Workers = 2
	o.Precision = Float32
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := c.CompressWindow32(w)
	if err != nil {
		t.Fatal(err)
	}
	if !cw.Progressive() {
		t.Fatal("window is not progressive")
	}

	full, err := Decompress32(cw)
	if err != nil {
		t.Fatal(err)
	}
	viaLevels, err := levelsOf[float32](cw, cw.SpatialLevels)
	if err != nil {
		t.Fatal(err)
	}
	windows32BitIdentical(t, full, viaLevels, "f32 progressive full refine")

	coarse, err := levelsOf[float32](cw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(coarse.Slices) != len(full.Slices) {
		t.Fatalf("coarse window has %d slices, want %d", len(coarse.Slices), len(full.Slices))
	}
	if coarse.Dims == full.Dims {
		t.Fatalf("level-0 decode did not coarsen dims: %v", coarse.Dims)
	}

	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCompressedWindow(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Decompress32(back)
	if err != nil {
		t.Fatal(err)
	}
	windows32BitIdentical(t, full, again, "f32 progressive serialize roundtrip")
}

func TestFloat32MaxErrRejected(t *testing.T) {
	o := DefaultOptions()
	o.MaxErr = 1e-3
	o.Precision = Float32
	if err := o.Validate(); err == nil {
		t.Fatal("Validate accepted MaxErr at Float32")
	}
	o.Precision = Float64
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	if _, err := NewWriter32(o, d, func(*CompressedWindow) error { return nil }); err == nil {
		t.Fatal("NewWriter32 accepted MaxErr options")
	}
	if _, err := NewAsyncWriter32(o, d, 2, func(*CompressedWindow) error { return nil }); err == nil {
		t.Fatal("NewAsyncWriter32 accepted MaxErr options")
	}
}

func TestFloat32WorkerBitDeterminism(t *testing.T) {
	d := grid.Dims{Nx: 15, Ny: 9, Nz: 7}
	w := coherentWindow32(d, 10, 0.1)
	var ref []byte
	for _, workers := range []int{1, 2, 4, 7} {
		o := DefaultOptions()
		o.WindowSize = 10
		o.Ratio = 10
		o.Workers = workers
		o.Precision = Float32
		c, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		cw, err := c.CompressWindow32(w.Clone())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := cw.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("workers=%d produced different serialized bytes", workers)
		}
	}
}

func TestDecompressSlice32MatchesFull(t *testing.T) {
	d := grid.Dims{Nx: 12, Ny: 10, Nz: 8}
	w := coherentWindow32(d, 10, 0.4)
	o := DefaultOptions()
	o.WindowSize = 10
	o.Ratio = 8
	o.Precision = Float32
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := c.CompressWindow32(w)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress32(cw)
	if err != nil {
		t.Fatal(err)
	}
	for _, slice := range []int{0, 5, 9} {
		f, err := sliceOf[float32](cw, slice)
		if err != nil {
			t.Fatal(err)
		}
		for j := range f.Data {
			if math.Float32bits(f.Data[j]) != math.Float32bits(full.Slices[slice].Data[j]) {
				t.Fatalf("slice %d sample %d differs from full decode", slice, j)
			}
		}
	}
}

func TestWriter32Stream(t *testing.T) {
	d := grid.Dims{Nx: 10, Ny: 8, Nz: 6}
	o := DefaultOptions()
	o.WindowSize = 4
	var got []*CompressedWindow
	w, err := NewWriter32(o, d, func(cw *CompressedWindow) error {
		got = append(got, cw)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	src := coherentWindow32(d, 10, 0.2)
	for i, f := range src.Slices {
		if err := w.WriteSlice(f, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d windows, want 3 (4+4+2 slices)", len(got))
	}
	for i, cw := range got {
		if cw.Precision != Float32 {
			t.Fatalf("window %d precision %v, want Float32", i, cw.Precision)
		}
	}
	st := w.Stats()
	if st.SlicesIn != 10 || st.WindowsOut != 3 || st.PendingSlices != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if want := int64(d.Len()) * 4 * 4; st.PeakBufferSize != want {
		t.Fatalf("peak buffer %d bytes, want %d (float32 samples)", st.PeakBufferSize, want)
	}
}

func TestAsyncWriter32MatchesSync(t *testing.T) {
	d := grid.Dims{Nx: 10, Ny: 8, Nz: 6}
	o := DefaultOptions()
	o.WindowSize = 5
	o.Workers = 2

	serialize := func(cw *CompressedWindow) []byte {
		var buf bytes.Buffer
		if _, err := cw.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var syncOut [][]byte
	sw, err := NewWriter32(o, d, func(cw *CompressedWindow) error {
		syncOut = append(syncOut, serialize(cw))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var asyncOut [][]byte
	aw, err := NewAsyncWriter32(o, d, 3, func(cw *CompressedWindow) error {
		asyncOut = append(asyncOut, serialize(cw))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	src := coherentWindow32(d, 10, 0.6)
	for i, f := range src.Slices {
		if err := sw.WriteSlice(f, float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := aw.WriteSlice(f, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(syncOut) != len(asyncOut) {
		t.Fatalf("sync %d windows vs async %d", len(syncOut), len(asyncOut))
	}
	for i := range syncOut {
		if !bytes.Equal(syncOut[i], asyncOut[i]) {
			t.Fatalf("window %d differs between sync and async f32 writers", i)
		}
	}
}

// widen64 lifts a float32 window to float64 bit-exactly, so both
// pipelines see numerically identical inputs.
func widen64(w *grid.Window32) *grid.Window {
	out := grid.NewWindow(w.Dims)
	for i, s := range w.Slices {
		f := grid.NewField3D(w.Dims.Nx, w.Dims.Ny, w.Dims.Nz)
		for j, v := range s.Data {
			f.Data[j] = float64(v)
		}
		if err := out.Append(f, w.Times[i]); err != nil {
			panic(err)
		}
	}
	return out
}

// TestFloat32PipelineMatchesOracle runs the full compress/decompress
// round trip at both precisions on identical inputs, over every window
// shape the pipeline ships (1/10/20/40 slices) and both kernels, and
// requires the float32 reconstruction to match the float64 oracle:
//
//   - the reported quality (PSNR, i.e. -20*log10(NRMSE)) must agree
//     within 0.2 dB — the "equal reported PSNR" acceptance bar; and
//   - the two reconstructions must agree to below the compression error
//     itself, so precision is never the dominant loss term.
//
// The bound is analytic in origin: away from threshold ties, float32
// rounding contributes O(levels*eps32) ~ 1e-6 relative error (see the
// wavelet and transform oracle tests); at the cutoff, the kept sets may
// differ and each swap costs the cutoff magnitude, which is what the
// thresholding already discards — so the cross error is bounded by the
// compression-error scale and the reported quality is unchanged.
func TestFloat32PipelineMatchesOracle(t *testing.T) {
	d := grid.Dims{Nx: 14, Ny: 12, Nz: 10}
	for _, kernel := range []wavelet.Kernel{wavelet.CDF97, wavelet.CDF53} {
		for _, slices := range []int{1, 10, 20, 40} {
			w32 := coherentWindow32(d, slices, 0.3)
			w64 := widen64(w32)

			o := DefaultOptions()
			o.WindowSize = slices
			if slices == 1 {
				// A single-slice window is the per-slice 3D mode.
				o.Mode = Spatial3D
				o.WindowSize = DefaultOptions().WindowSize
			}
			o.Ratio = 8
			o.SpatialKernel = kernel
			o.TemporalKernel = kernel
			c, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			cw64, err := c.CompressWindow(w64)
			if err != nil {
				t.Fatalf("%v slices=%d: f64 compress: %v", kernel, slices, err)
			}
			recon64, err := Decompress(cw64)
			if err != nil {
				t.Fatalf("%v slices=%d: f64 decompress: %v", kernel, slices, err)
			}

			o32 := o
			o32.Precision = Float32
			c32, err := New(o32)
			if err != nil {
				t.Fatal(err)
			}
			cw32, err := c32.CompressWindow32(w32)
			if err != nil {
				t.Fatalf("%v slices=%d: f32 compress: %v", kernel, slices, err)
			}
			recon32, err := Decompress32(cw32)
			if err != nil {
				t.Fatalf("%v slices=%d: f32 decompress: %v", kernel, slices, err)
			}

			nrmse64 := windowNRMSE(t, w64, recon64)
			nrmse32 := window32NRMSE(t, w32, recon32)
			if nrmse64 <= 0 {
				t.Fatalf("%v slices=%d: degenerate f64 NRMSE %g", kernel, slices, nrmse64)
			}
			dbDiff := math.Abs(20 * math.Log10(nrmse32/nrmse64))
			if dbDiff > 0.2 {
				t.Errorf("%v slices=%d: PSNR differs by %.3f dB (f64 NRMSE %g, f32 NRMSE %g)",
					kernel, slices, dbDiff, nrmse64, nrmse32)
			}

			// Cross-reconstruction agreement: narrow the f64 oracle output
			// and compare sample-wise against the f32 reconstruction.
			var sum float64
			var n int
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := range recon64.Slices {
				a, b := recon64.Slices[i].Data, recon32.Slices[i].Data
				for j := range a {
					diff := a[j] - float64(b[j])
					sum += diff * diff
					n++
					lo = math.Min(lo, a[j])
					hi = math.Max(hi, a[j])
				}
			}
			// The two pipelines may keep slightly different coefficient
			// sets near the threshold cutoff (float32 magnitudes tie-break
			// differently), and a swapped coefficient perturbs the
			// reconstruction by the cutoff magnitude — the compression-
			// error scale. Away from ties the disagreement is at rounding
			// scale, so the cross-reconstruction error stays strictly
			// below the compression error; equality of reported PSNR above
			// is the quality bar.
			cross := math.Sqrt(sum/float64(n)) / (hi - lo)
			if cross > 0.5*nrmse64 {
				t.Errorf("%v slices=%d: f32-vs-f64 reconstruction NRMSE %g exceeds half the compression error %g",
					kernel, slices, cross, nrmse64)
			}
		}
	}
}
