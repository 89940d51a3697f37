package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stwave/internal/codec"
	"stwave/internal/grid"
	"stwave/internal/metrics"
	"stwave/internal/wavelet"
)

// coherentWindow builds a window whose slices evolve smoothly in space and
// time — the regime where the paper's 4D compression shines.
func coherentWindow(d grid.Dims, slices int, phase float64) *grid.Window {
	w := grid.NewWindow(d)
	for t := 0; t < slices; t++ {
		f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
		tt := float64(t) * 0.05
		for z := 0; z < d.Nz; z++ {
			for y := 0; y < d.Ny; y++ {
				for x := 0; x < d.Nx; x++ {
					fx := float64(x) / float64(d.Nx)
					fy := float64(y) / float64(d.Ny)
					fz := float64(z) / float64(d.Nz)
					v := math.Sin(2*math.Pi*(fx+tt)+phase)*math.Cos(2*math.Pi*fy) +
						0.5*math.Sin(2*math.Pi*(2*fz-tt))
					f.Set(x, y, z, v)
				}
			}
		}
		if err := w.Append(f, float64(t)); err != nil {
			panic(err)
		}
	}
	return w
}

// noisyWindow builds temporally incoherent data (independent noise per
// slice) — the regime where 4D compression loses its edge.
func noisyWindow(rng *rand.Rand, d grid.Dims, slices int) *grid.Window {
	w := grid.NewWindow(d)
	for t := 0; t < slices; t++ {
		f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64()
		}
		if err := w.Append(f, float64(t)); err != nil {
			panic(err)
		}
	}
	return w
}

func windowNRMSE(t *testing.T, orig, recon *grid.Window) float64 {
	t.Helper()
	ac := metrics.NewAccumulator()
	for i := range orig.Slices {
		if err := ac.Add(orig.Slices[i].Data, recon.Slices[i].Data); err != nil {
			t.Fatal(err)
		}
	}
	return ac.NRMSE()
}

func TestOptionsValidate(t *testing.T) {
	good := DefaultOptions()
	if err := good.Validate(); err != nil {
		t.Errorf("DefaultOptions invalid: %v", err)
	}
	bad := []Options{
		func() Options { o := DefaultOptions(); o.Mode = Mode(7); return o }(),
		func() Options { o := DefaultOptions(); o.SpatialKernel = wavelet.Kernel(9); return o }(),
		func() Options { o := DefaultOptions(); o.TemporalKernel = wavelet.Kernel(9); return o }(),
		func() Options { o := DefaultOptions(); o.WindowSize = 1; return o }(),
		func() Options { o := DefaultOptions(); o.Ratio = 0.5; return o }(),
		func() Options { o := DefaultOptions(); o.Ratio = math.NaN(); return o }(),
		func() Options { o := DefaultOptions(); o.Ratio = math.Inf(1); return o }(),
		func() Options { o := DefaultOptions(); o.SpatialLevels = -2; return o }(),
		func() Options { o := DefaultOptions(); o.TemporalLevels = -3; return o }(),
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d validated", i)
		}
	}
	// 3D mode ignores temporal settings entirely.
	o3 := Options{Mode: Spatial3D, SpatialKernel: wavelet.CDF97, Ratio: 8, SpatialLevels: -1, TemporalLevels: -1}
	if err := o3.Validate(); err != nil {
		t.Errorf("3D options invalid: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if Spatial3D.String() != "3D" || Spatiotemporal4D.String() != "4D" {
		t.Error("mode labels must match the paper's table headings")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode formatting")
	}
}

func TestCompressorRejectsEmptyWindow(t *testing.T) {
	c, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compress(context.Background(), c, grid.NewWindow(grid.Dims{Nx: 4, Ny: 4, Nz: 4}), Copy); err == nil {
		t.Error("expected error for empty window")
	}
}

func TestRoundTripDoesNotModifyInput(t *testing.T) {
	d := grid.Dims{Nx: 12, Ny: 10, Nz: 8}
	w := coherentWindow(d, 10, 0)
	orig := w.Clone()
	c, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RoundTrip(w); err != nil {
		t.Fatal(err)
	}
	for i := range w.Slices {
		for j := range w.Slices[i].Data {
			if w.Slices[i].Data[j] != orig.Slices[i].Data[j] {
				t.Fatal("RoundTrip modified the input window")
			}
		}
	}
}

func TestRatioControlsRetainedCoefficients(t *testing.T) {
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	w := coherentWindow(d, 20, 0)
	total := w.TotalSamples()
	for _, ratio := range []float64{8, 16, 32, 64, 128} {
		opts := DefaultOptions()
		opts.Ratio = ratio
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		cw, err := Compress(context.Background(), c, w, Copy)
		if err != nil {
			t.Fatal(err)
		}
		want := int(float64(total) / ratio)
		if got := cw.RetainedCoefficients(); got != want {
			t.Errorf("ratio %g: retained %d, want %d", ratio, got, want)
		}
	}
}

func Test3DAnd4DRetainSameBudget(t *testing.T) {
	// Section V-A4: "the total number of retained coefficients stays the
	// same no matter spatial or spatiotemporal compression."
	d := grid.Dims{Nx: 16, Ny: 16, Nz: 16}
	w := coherentWindow(d, 16, 0)
	for _, mode := range []Mode{Spatial3D, Spatiotemporal4D} {
		opts := DefaultOptions()
		opts.Mode = mode
		opts.WindowSize = 16
		opts.Ratio = 16
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		cw, err := Compress(context.Background(), c, w, Copy)
		if err != nil {
			t.Fatal(err)
		}
		want := w.TotalSamples() / 16
		if got := cw.RetainedCoefficients(); got != want {
			t.Errorf("%v: retained %d, want %d", mode, got, want)
		}
	}
}

func TestLosslessAtRatio1(t *testing.T) {
	d := grid.Dims{Nx: 10, Ny: 10, Nz: 10}
	w := coherentWindow(d, 10, 1)
	opts := DefaultOptions()
	opts.WindowSize = 10
	opts.Ratio = 1
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := c.RoundTrip(w)
	if err != nil {
		t.Fatal(err)
	}
	// Ratio 1 keeps all coefficients; the only loss is float32 encoding.
	if e := windowNRMSE(t, w, recon); e > 1e-6 {
		t.Errorf("ratio 1 NRMSE = %g, want < 1e-6 (float32 quantization only)", e)
	}
}

// The paper's headline claim: on coherent data, 4D compression roughly
// halves the error of 3D at equal storage (P1).
func Test4DBeats3DOnCoherentData(t *testing.T) {
	d := grid.Dims{Nx: 20, Ny: 20, Nz: 20}
	w := coherentWindow(d, 20, 0.3)
	errFor := func(mode Mode) float64 {
		opts := DefaultOptions()
		opts.Mode = mode
		opts.WindowSize = 20
		opts.Ratio = 32
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		recon, _, err := c.RoundTrip(w)
		if err != nil {
			t.Fatal(err)
		}
		return windowNRMSE(t, w, recon)
	}
	e3 := errFor(Spatial3D)
	e4 := errFor(Spatiotemporal4D)
	if e4 >= e3 {
		t.Errorf("4D NRMSE %.4g not better than 3D %.4g on coherent data", e4, e3)
	}
	if e4 > e3/1.5 {
		t.Logf("note: 4D/3D error ratio = %.2f (paper reports ~0.5 on res=1 data)", e4/e3)
	}
}

// On temporally incoherent (noise) data the 4D advantage must vanish or
// reverse — the paper's Section V-E limitation.
func Test4DAdvantageVanishesOnNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := grid.Dims{Nx: 12, Ny: 12, Nz: 12}
	w := noisyWindow(rng, d, 20)
	errFor := func(mode Mode) float64 {
		opts := DefaultOptions()
		opts.Mode = mode
		opts.WindowSize = 20
		opts.Ratio = 8
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		recon, _, err := c.RoundTrip(w)
		if err != nil {
			t.Fatal(err)
		}
		return windowNRMSE(t, w, recon)
	}
	e3 := errFor(Spatial3D)
	e4 := errFor(Spatiotemporal4D)
	// 4D must not be dramatically better on pure noise; allow parity.
	if e4 < e3*0.8 {
		t.Errorf("4D NRMSE %.4g suspiciously better than 3D %.4g on incoherent noise", e4, e3)
	}
}

func TestPerSliceBudgetAblation(t *testing.T) {
	d := grid.Dims{Nx: 12, Ny: 12, Nz: 12}
	w := coherentWindow(d, 20, 0.7)
	opts := DefaultOptions()
	opts.WindowSize = 20
	opts.Ratio = 32
	opts.PerSliceBudget = true
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := Compress(context.Background(), c, w, Copy)
	if err != nil {
		t.Fatal(err)
	}
	// Budget must still match in total, distributed evenly per slice.
	perSlice := d.Len() / 32
	for i, b := range cw.Groups[0] {
		if b.Retained() != perSlice {
			t.Errorf("slice %d retained %d, want %d with per-slice budget", i, b.Retained(), perSlice)
		}
	}
	if _, err := Decompress(cw); err != nil {
		t.Fatal(err)
	}
}

func TestShortFinalWindowAdaptsTemporalLevels(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	w := coherentWindow(d, 7, 0) // shorter than WindowSize 20
	opts := DefaultOptions()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	recon, cw, err := c.RoundTrip(w)
	if err != nil {
		t.Fatal(err)
	}
	if cw.TemporalLevels > wavelet.MaxLevels(wavelet.CDF97, 7) {
		t.Errorf("temporal levels %d too deep for 7 slices", cw.TemporalLevels)
	}
	if e := windowNRMSE(t, w, recon); e > 0.2 {
		t.Errorf("short-window NRMSE %g unexpectedly large", e)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	d := grid.Dims{Nx: 9, Ny: 7, Nz: 5}
	w := coherentWindow(d, 10, 0.2)
	opts := DefaultOptions()
	opts.WindowSize = 10
	opts.Ratio = 8
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := Compress(context.Background(), c, w, Copy)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := cw.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Errorf("WriteTo returned %d, buffer has %d", n, buf.Len())
	}
	cw2, err := ReadCompressedWindow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cw2.Dims != cw.Dims || cw2.NumSlices() != cw.NumSlices() {
		t.Fatalf("header mismatch: %v/%d vs %v/%d", cw2.Dims, cw2.NumSlices(), cw.Dims, cw.NumSlices())
	}
	if cw2.SpatialLevels != cw.SpatialLevels || cw2.TemporalLevels != cw.TemporalLevels {
		t.Error("levels not preserved")
	}
	if cw2.Opts.Ratio != cw.Opts.Ratio {
		t.Error("ratio not preserved")
	}
	r1, err := Decompress(cw)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Decompress(cw2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Slices {
		for j := range r1.Slices[i].Data {
			if r1.Slices[i].Data[j] != r2.Slices[i].Data[j] {
				t.Fatal("deserialized window decompresses differently")
			}
		}
	}
}

func TestReadCompressedWindowRejectsGarbage(t *testing.T) {
	if _, err := ReadCompressedWindow(bytes.NewReader([]byte("not a window"))); err == nil {
		t.Error("expected error for bad magic")
	}
	if _, err := ReadCompressedWindow(bytes.NewReader(nil)); err == nil {
		t.Error("expected error for empty input")
	}

	// Forged headers: every row must be refused by both header views, so
	// a server that mounts windows from ReadWindowInfo alone never mounts
	// one the full reader refuses.
	opts := DefaultOptions()
	opts.WindowSize = 4
	opts.Ratio = 4
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := Compress(context.Background(), c, coherentWindow(grid.Dims{Nx: 6, Ny: 5, Nz: 4}, 4, 0), Copy)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	forged := []struct {
		name  string
		forge func(h []byte)
	}{
		{"magic", func(h []byte) { copy(h, "STWX") }},
		{"codec", func(h []byte) { h[4] = 0x3f }},
		{"mode", func(h []byte) { h[5] = 2 }},
		{"spatial kernel", func(h []byte) { h[6] = 0xff }},
		{"temporal kernel", func(h []byte) { h[7] = 0xff }},
		{"spatial levels", func(h []byte) { le.PutUint32(h[8:12], maxHeaderLevels+1) }},
		{"temporal levels", func(h []byte) { le.PutUint32(h[12:16], maxHeaderLevels+1) }},
		{"zero dims", func(h []byte) { le.PutUint32(h[24:28], 0) }},
		{"axis cap", func(h []byte) { le.PutUint32(h[32:36], grid.MaxAxis+1) }},
		{"zero slices", func(h []byte) { le.PutUint32(h[36:40], 0) }},
		{"slice cap", func(h []byte) { le.PutUint32(h[36:40], maxHeaderSlices+1) }},
	}
	for _, f := range forged {
		data := bytes.Clone(buf.Bytes())
		f.forge(data[:40])
		if wi, err := ReadWindowInfo(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadWindowInfo accepted a forged header: %+v", f.name, wi)
		}
		if _, err := ReadCompressedWindow(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadCompressedWindow accepted a forged header", f.name)
		}
	}
}

func TestStreamWriter4D(t *testing.T) {
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	var got []*CompressedWindow
	opts := DefaultOptions()
	opts.WindowSize = 10
	opts.Ratio = 8
	wr, err := NewWriterOf[float64](opts, d, func(cw *CompressedWindow) error {
		got = append(got, cw)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	src := coherentWindow(d, 25, 0)
	for i, s := range src.Slices {
		if err := wr.WriteSlice(s, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 {
		t.Fatalf("before flush: %d windows, want 2", len(got))
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("after flush: %d windows, want 3", len(got))
	}
	wantLens := []int{10, 10, 5}
	for i, cw := range got {
		if cw.NumSlices() != wantLens[i] {
			t.Errorf("window %d has %d slices, want %d", i, cw.NumSlices(), wantLens[i])
		}
	}
	st := wr.Stats()
	if st.SlicesIn != 25 || st.WindowsOut != 3 || st.PendingSlices != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.PeakBufferSize != int64(10*d.Len())*8 {
		t.Errorf("peak buffer = %d, want %d", st.PeakBufferSize, 10*d.Len()*8)
	}
	// Times must be preserved through windows.
	if got[2].Times[0] != 20 {
		t.Errorf("third window starts at t=%g, want 20", got[2].Times[0])
	}
}

func TestStreamWriter3DFlushesImmediately(t *testing.T) {
	d := grid.Dims{Nx: 6, Ny: 6, Nz: 6}
	count := 0
	opts := Options{Mode: Spatial3D, SpatialKernel: wavelet.CDF97, Ratio: 8, SpatialLevels: -1}
	wr, err := NewWriterOf[float64](opts, d, func(cw *CompressedWindow) error {
		count++
		if cw.NumSlices() != 1 {
			t.Errorf("3D window has %d slices", cw.NumSlices())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	src := coherentWindow(d, 5, 0)
	for i, s := range src.Slices {
		if err := wr.WriteSlice(s, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if count != 5 {
		t.Errorf("3D mode flushed %d windows for 5 slices", count)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Error("3D flush emitted extra windows")
	}
}

func TestStreamWriterValidation(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	if _, err := NewWriterOf[float64](DefaultOptions(), d, nil); err == nil {
		t.Error("expected error for nil sink")
	}
	if _, err := NewWriterOf[float64](DefaultOptions(), grid.Dims{}, func(*CompressedWindow) error { return nil }); err == nil {
		t.Error("expected error for invalid dims")
	}
	wr, err := NewWriterOf[float64](DefaultOptions(), d, func(*CompressedWindow) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.WriteSlice(grid.NewField3D(5, 4, 4), 0); err == nil {
		t.Error("expected error for mismatched slice dims")
	}
}

// P2 in miniature: 4D at 2x the ratio should be comparable to 3D.
func TestP2StorageHalving(t *testing.T) {
	d := grid.Dims{Nx: 20, Ny: 20, Nz: 20}
	w := coherentWindow(d, 20, 0.1)
	errFor := func(mode Mode, ratio float64) float64 {
		opts := DefaultOptions()
		opts.Mode = mode
		opts.WindowSize = 20
		opts.Ratio = ratio
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		recon, _, err := c.RoundTrip(w)
		if err != nil {
			t.Fatal(err)
		}
		return windowNRMSE(t, w, recon)
	}
	e3at64 := errFor(Spatial3D, 64)
	e4at128 := errFor(Spatiotemporal4D, 128)
	// The paper finds 4D@128:1 comparable to 3D@64:1 on coherent data.
	if e4at128 > e3at64*1.5 {
		t.Errorf("P2 violated: 4D@128:1 NRMSE %.4g vs 3D@64:1 %.4g", e4at128, e3at64)
	}
}

// TestDeflatedSerializationRoundTrip: Options.Codec = codec.Deflate()
// writes the sparse blocks through the DEFLATE stage. The bytes are
// pinned by a SHA-256 recorded from the removed WriteToDeflated, which
// framed a sparse-codec window the same way.
func TestDeflatedSerializationRoundTrip(t *testing.T) {
	const wantSHA = "5e481f9905380c4f7d6b9649aca99d5ed9163dd53bace3e1c46b1e7567d3108f"
	d := grid.Dims{Nx: 10, Ny: 8, Nz: 6}
	w := coherentWindow(d, 12, 0.4)
	encode := func(cdc codec.Codec) (*CompressedWindow, []byte) {
		opts := DefaultOptions()
		opts.WindowSize = 12
		opts.Ratio = 64
		opts.Codec = cdc
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		cw, err := Compress(context.Background(), c, w, Copy)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		n, err := cw.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != n {
			t.Errorf("%s: WriteTo returned %d, wrote %d", cdc.Name(), n, buf.Len())
		}
		return cw, buf.Bytes()
	}
	cw, raw := encode(codec.Sparse())
	_, defl := encode(codec.Deflate())
	if got := fmt.Sprintf("%x", sha256.Sum256(defl)); got != wantSHA {
		t.Errorf("deflated window SHA-256 %s, want %s", got, wantSHA)
	}
	if len(defl) >= len(raw) {
		t.Errorf("deflated %d bytes not below raw %d at 64:1", len(defl), len(raw))
	}
	cw2, err := ReadCompressedWindow(bytes.NewReader(defl))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Decompress(cw)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Decompress(cw2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Slices {
		for j := range r1.Slices[i].Data {
			if r1.Slices[i].Data[j] != r2.Slices[i].Data[j] {
				t.Fatal("deflated round trip decompresses differently")
			}
		}
	}
}
