package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/metrics"
	"stwave/internal/obs"
	"stwave/internal/storage"
)

// TestParseDims covers the -dims parser stcomp and stview share.
func TestParseDims(t *testing.T) {
	for _, c := range []struct {
		in   string
		want grid.Dims
		ok   bool
	}{
		{"4x4x4", grid.Dims{Nx: 4, Ny: 4, Nz: 4}, true},
		{"4X4X4", grid.Dims{Nx: 4, Ny: 4, Nz: 4}, true},
		{"64x32x16", grid.Dims{Nx: 64, Ny: 32, Nz: 16}, true},
		{"1048576x1x1", grid.Dims{Nx: grid.MaxAxis, Ny: 1, Nz: 1}, true},
		{"4x4", grid.Dims{}, false},
		{"4x4x4x4", grid.Dims{}, false},
		{"", grid.Dims{}, false},
		{"0x4x4", grid.Dims{}, false},
		{"-1x4x4", grid.Dims{}, false},
		{"axbxc", grid.Dims{}, false},
		{"2097152x4x4", grid.Dims{}, false},
		{"3037000500x3037000500x2", grid.Dims{}, false},
	} {
		got, err := grid.ParseDims(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("grid.ParseDims(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		5:           "5B",
		2048:        "2.0KB",
		3_500_000:   "3.5MB",
		2_000000000: "2.00GB",
	}
	for n, want := range cases {
		if got := fmtBytes(n); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestRunIngestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ingest.stw")
	err := runIngest([]string{
		"-source", "synth", "-dims", "8x8x8", "-slices", "10",
		"-window", "4", "-ratio", "8", "-workers", "2",
		"-policy", "stall", "-mem-budget", strconv.Itoa(3 * 8 * 8 * 8 * 4 * 8),
		"-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := storage.OpenContainer(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumWindows() != 3 {
		t.Fatalf("ingest wrote %d windows, want 3 (4+4+2 slices)", r.NumWindows())
	}
	total := 0
	for i := 0; i < r.NumWindows(); i++ {
		wi, err := r.WindowInfo(i)
		if err != nil {
			t.Fatal(err)
		}
		if wi.Gap != nil {
			t.Fatalf("window %d is a gap; an unstressed run must shed nothing", i)
		}
		total += wi.NumSlices
	}
	if total != 10 {
		t.Fatalf("container covers %d slices, want 10", total)
	}
	// info and decompress must both read the result back.
	if err := runInfo([]string{"-in", out}); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, "recon")
	if err := runDecompress([]string{"-in", out, "-prefix", prefix}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(prefix + "*.raw")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 10 {
		t.Fatalf("decompress wrote %d files, want 10", len(files))
	}
}

func TestRunIngestValidation(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.stw")
	existing := []byte("an existing container")
	for name, args := range map[string][]string{
		"missing dims":   {"-slices", "4", "-out", out},
		"missing slices": {"-dims", "8x8x8", "-out", out},
		"bad source":     {"-source", "warp", "-dims", "8x8x8", "-slices", "4", "-out", out},
		"bad policy":     {"-policy", "panic", "-dims", "8x8x8", "-slices", "4", "-out", out},
		"bad ladder":     {"-policy", "degrade", "-ladder", "a,b", "-dims", "8x8x8", "-slices", "4", "-out", out},
		"flat ladder":    {"-policy", "degrade", "-ladder", "32", "-dims", "8x8x8", "-slices", "4", "-out", out},
		"NaN ladder":     {"-policy", "degrade", "-ladder", "NaN", "-dims", "8x8x8", "-slices", "4", "-out", out},
		"NaN ratio":      {"-ratio", "NaN", "-dims", "8x8x8", "-slices", "4", "-out", out},
		"non-cubic sim":  {"-source", "ghost", "-dims", "8x8x4", "-slices", "4", "-out", out},
		"NaN dt":         {"-dt", "NaN", "-dims", "8x8x8", "-slices", "4", "-window", "2", "-out", out},
		"+Inf dt":        {"-dt", "+Inf", "-dims", "8x8x8", "-slices", "4", "-window", "2", "-out", out},
		"-Inf dt":        {"-dt", "-Inf", "-source", "tornado", "-dims", "8x8x8", "-slices", "4", "-window", "2", "-out", out},
	} {
		if err := os.WriteFile(out, existing, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runIngest(args); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, existing) {
			t.Errorf("%s: -out holds %d bytes after the run (%v), want its %d bytes unchanged", name, len(got), err, len(existing))
		}
	}
}

// TestRunIngestOverCapDims: dims no container header can store are
// rejected before -out is created.
func TestRunIngestOverCapDims(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.stw")
	if err := runIngest([]string{"-dims", "2097152x4x4", "-slices", "4", "-out", out}); err == nil {
		t.Error("over-cap -dims accepted")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("-out exists after a rejected run (stat: %v)", err)
	}
}

// TestInfoAndDecompressWithGaps: both subcommands must account for gap
// entries — info labels them, decompress reserves their slice indices.
func TestInfoAndDecompressWithGaps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gaps.stw")
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	opts := core.DefaultOptions()
	opts.WindowSize = 2
	opts.Ratio = 4
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	win := grid.NewWindow(d)
	for i := 0; i < 2; i++ {
		f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
		for j := range f.Data {
			f.Data[j] = float64(i + j)
		}
		if err := win.Append(f, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cw, err := core.Compress(context.Background(), comp, win, core.Copy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(cw); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendGap(core.GapMarker{Slices: 2, T0: 2, T1: 3, Reason: core.GapShed}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(cw); err != nil { // reuse the payload; times don't matter here
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if err := runInfo([]string{"-in", path}); err != nil {
		t.Fatalf("info with gaps: %v", err)
	}
	prefix := filepath.Join(dir, "r")
	if err := runDecompress([]string{"-in", path, "-prefix", prefix}); err != nil {
		t.Fatalf("decompress with gaps: %v", err)
	}
	// Slices 0,1 and 4,5 exist; 2,3 are the gap's reserved indices.
	for _, want := range []string{"0000", "0001", "0004", "0005"} {
		if _, err := os.Stat(prefix + want + ".raw"); err != nil {
			t.Errorf("missing slice file %s: %v", want, err)
		}
	}
	for _, hole := range []string{"0002", "0003"} {
		if _, err := os.Stat(prefix + hole + ".raw"); err == nil {
			t.Errorf("gap slice %s was written; its index should be a hole", hole)
		}
	}
}

// TestRunCompressFloat32RoundTrip drives the full CLI at -precision f32:
// compress raw volumes, inspect, decompress, and check every stored
// window carries the float32 precision flag.
func TestRunCompressFloat32RoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	paths := make([]string, 6)
	for i := range paths {
		f := grid.NewField3D32(d.Nx, d.Ny, d.Nz)
		for j := range f.Data {
			f.Data[j] = float32(i) + float32(j)*0.01
		}
		paths[i] = filepath.Join(dir, "in"+strconv.Itoa(i)+".raw")
		if err := f.SaveRawFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	out := filepath.Join(dir, "f32.stw")
	args := append([]string{
		"-dims", "8x8x8", "-window", "3", "-ratio", "4",
		"-precision", "f32", "-out", out,
	}, paths...)
	if err := runCompress(args); err != nil {
		t.Fatal(err)
	}
	r, err := storage.OpenContainer(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.NumWindows(); i++ {
		wi, err := r.WindowInfo(i)
		if err != nil {
			t.Fatal(err)
		}
		if wi.Precision != core.Float32 {
			t.Errorf("window %d precision %v, want Float32", i, wi.Precision)
		}
	}
	r.Close()
	if err := runInfo([]string{"-in", out}); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, "recon")
	if err := runDecompress([]string{"-in", out, "-prefix", prefix}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(prefix + "*.raw")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 6 {
		t.Fatalf("decompress wrote %d files, want 6", len(files))
	}
}

// TestRunCompressRejectsNonFiniteRatio: -ratio NaN compares false against
// every bound, so it must be rejected explicitly rather than compress each
// window to a single coefficient.
func TestRunCompressRejectsNonFiniteRatio(t *testing.T) {
	dir := t.TempDir()
	f := grid.NewField3D(4, 4, 4)
	in := filepath.Join(dir, "in.raw")
	if err := f.SaveRawFile(in); err != nil {
		t.Fatal(err)
	}
	existing := []byte("an existing container")
	for _, r := range []string{"NaN", "Inf"} {
		out := filepath.Join(dir, r+".stw")
		if err := os.WriteFile(out, existing, 0o644); err != nil {
			t.Fatal(err)
		}
		err := runCompress([]string{"-dims", "4x4x4", "-mode", "3d", "-ratio", r, "-out", out, in})
		if err == nil {
			t.Errorf("-ratio %s accepted", r)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, existing) {
			t.Errorf("-ratio %s: -out holds %d bytes after the run (%v), want its %d bytes unchanged", r, len(got), err, len(existing))
		}
	}
}

// TestRunIngestFloat32 runs the in-situ path at -precision f32.
func TestRunIngestFloat32(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ingest32.stw")
	err := runIngest([]string{
		"-source", "synth", "-dims", "8x8x8", "-slices", "8",
		"-window", "4", "-ratio", "8", "-workers", "2",
		"-precision", "f32", "-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := storage.OpenContainer(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumWindows() != 2 {
		t.Fatalf("ingest wrote %d windows, want 2", r.NumWindows())
	}
	for i := 0; i < r.NumWindows(); i++ {
		wi, err := r.WindowInfo(i)
		if err != nil {
			t.Fatal(err)
		}
		if wi.Precision != core.Float32 {
			t.Errorf("window %d precision %v, want Float32", i, wi.Precision)
		}
	}
}

// TestRunCompressFloat32TargetNRMSE: -target-nrmse runs at -precision
// f32 through the ingest engine, and the decompressed slices of every
// window meet the target against the float32 inputs.
func TestRunCompressFloat32TargetNRMSE(t *testing.T) {
	const target = 1e-3
	dir := t.TempDir()
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	paths := writeRawSlices(t, dir, d, 7)
	out := filepath.Join(dir, "f32.stw")
	args := append([]string{"-dims", "8x8x8", "-window", "3", "-precision", "f32",
		"-target-nrmse", strconv.FormatFloat(target, 'g', -1, 64), "-out", out}, paths...)
	if err := runCompress(args); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, "recon")
	if err := runDecompress([]string{"-in", out, "-prefix", prefix}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < len(paths); w += 3 {
		ac := metrics.NewAccumulator()
		for i := w; i < min(w+3, len(paths)); i++ {
			in, err := grid.LoadRawFileOf[float32](paths[i], d.Nx, d.Ny, d.Nz)
			if err != nil {
				t.Fatal(err)
			}
			got, err := grid.LoadRawFileOf[float32](fmt.Sprintf("%s%04d.raw", prefix, i), d.Nx, d.Ny, d.Nz)
			if err != nil {
				t.Fatal(err)
			}
			a, b := make([]float64, len(in.Data)), make([]float64, len(in.Data))
			for j := range a {
				a[j], b[j] = float64(in.Data[j]), float64(got.Data[j])
			}
			if err := ac.Add(a, b); err != nil {
				t.Fatal(err)
			}
		}
		if ac.NRMSE() > target {
			t.Errorf("window at slice %d: NRMSE %g exceeds -target-nrmse %g", w, ac.NRMSE(), target)
		}
	}
}

// TestRunCompressFloat32MaxErr: -max-err runs at -precision f32, and the
// decompressed slices are within the bound of the float32 inputs.
func TestRunCompressFloat32MaxErr(t *testing.T) {
	const bound = 1e-3
	dir := t.TempDir()
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	ins := make([]*grid.Field3D32, 6)
	paths := make([]string, len(ins))
	for i := range ins {
		ins[i] = grid.NewField3D32(d.Nx, d.Ny, d.Nz)
		for j := range ins[i].Data {
			ins[i].Data[j] = float32(math.Sin(0.05*float64(j) + 0.3*float64(i)))
		}
		paths[i] = filepath.Join(dir, "in"+strconv.Itoa(i)+".raw")
		if err := ins[i].SaveRawFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	out := filepath.Join(dir, "f32.stw")
	args := append([]string{"-dims", "8x8x8", "-window", "3", "-precision", "f32",
		"-max-err", strconv.FormatFloat(bound, 'g', -1, 64), "-out", out}, paths...)
	if err := runCompress(args); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, "recon")
	if err := runDecompress([]string{"-in", out, "-prefix", prefix}); err != nil {
		t.Fatal(err)
	}
	for i, in := range ins {
		got, err := grid.LoadRawFileOf[float32](fmt.Sprintf("%s%04d.raw", prefix, i), d.Nx, d.Ny, d.Nz)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range in.Data {
			if e := math.Abs(float64(got.Data[j]) - float64(v)); e > bound {
				t.Fatalf("slice %d sample %d: error %g exceeds -max-err %g", i, j, e, bound)
			}
		}
	}
}

// TestRunCompressRejectsNonFiniteMaxErr: flag.Float64 parses "NaN", which
// every ordered range check accepts, so the bound is rejected explicitly.
func TestRunCompressRejectsNonFiniteMaxErr(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.raw")
	if err := grid.NewField3D(4, 4, 4).SaveRawFile(in); err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"NaN", "Inf"} {
		out := filepath.Join(dir, b+".stw")
		if err := runCompress([]string{"-dims", "4x4x4", "-window", "2", "-max-err", b, "-out", out, in, in}); err == nil {
			t.Errorf("-max-err %s accepted", b)
		}
	}
}

// writeRawSlices saves n float32 raw volumes of dims in dir and returns
// their paths.
func writeRawSlices(t *testing.T, dir string, d grid.Dims, n int) []string {
	t.Helper()
	paths := make([]string, n)
	for i := range paths {
		f := grid.NewField3D32(d.Nx, d.Ny, d.Nz)
		for j := range f.Data {
			f.Data[j] = float32(math.Sin(0.1*float64(j) + 0.2*float64(i)))
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("in%04d.raw", i))
		if err := f.SaveRawFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestRunCompressTrace: -trace writes a span tree holding one
// storage.append_window span per window, the short trailing window
// included, and one core.compress_window span per window, under
// -target-nrmse too.
func TestRunCompressTrace(t *testing.T) {
	for _, c := range []struct {
		extra      []string
		compresses func(int) bool
	}{
		{nil, func(n int) bool { return n == 3 }},
		{[]string{"-target-nrmse", "0.05"}, func(n int) bool { return n == 3 }},
	} {
		dir := t.TempDir()
		paths := writeRawSlices(t, dir, grid.Dims{Nx: 8, Ny: 8, Nz: 8}, 7)
		trace := filepath.Join(dir, "trace.json")
		args := append([]string{"-dims", "8x8x8", "-window", "3", "-trace", trace,
			"-out", filepath.Join(dir, "t.stw")}, c.extra...)
		if err := runCompress(append(args, paths...)); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		var root obs.SpanTree
		if err := json.Unmarshal(data, &root); err != nil {
			t.Fatal(err)
		}
		if root.Name != "stcomp.compress" || len(root.Children) == 0 {
			t.Fatalf("%v: root span %q with %d children, want stcomp.compress with some", c.extra, root.Name, len(root.Children))
		}
		counts := map[string]int{}
		root.Walk(func(n obs.SpanTree, _ int) { counts[n.Name]++ })
		if n := counts["storage.append_window"]; n != 3 {
			t.Errorf("%v: %d storage.append_window spans for 7 slices in windows of 3, want 3", c.extra, n)
		}
		if n := counts["core.compress_window"]; !c.compresses(n) {
			t.Errorf("%v: %d core.compress_window spans for 3 windows", c.extra, n)
		}
	}
}

// TestRunCompressWrongSizeInput: an input that is not exactly one volume
// of -dims is rejected before -out is touched — a smaller -dims would
// otherwise compress the prefix of each file, and a huge one would ask
// for a window the host cannot hold.
func TestRunCompressWrongSizeInput(t *testing.T) {
	dir := t.TempDir()
	paths := writeRawSlices(t, dir, grid.Dims{Nx: 8, Ny: 8, Nz: 8}, 2)
	out := filepath.Join(dir, "x.stw")
	existing := []byte("an existing container")
	for _, dims := range []string{"4x4x4", "1048576x1048576x2"} {
		if err := os.WriteFile(out, existing, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runCompress(append([]string{"-dims", dims, "-out", out}, paths...)); err == nil {
			t.Fatalf("-dims %s accepted for 8x8x8 inputs", dims)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, existing) {
			t.Errorf("-dims %s: -out holds %d bytes after the run (%v), want its %d bytes unchanged", dims, len(got), err, len(existing))
		}
	}
}
