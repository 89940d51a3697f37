package storage

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stwave/internal/codec"
	"stwave/internal/core"
	"stwave/internal/grid"
)

func TestTierString(t *testing.T) {
	if Buffer.String() != "buffer" || Permanent.String() != "permanent" {
		t.Error("tier names")
	}
	if Tier(9).String() != "Tier(9)" {
		t.Error("unknown tier formatting")
	}
}

func TestDefaultModelMatchesTableI(t *testing.T) {
	// The paper's Table I: 10 GB raw written to permanent storage in
	// 18.90 s; 10 GB written to and read from the SSD in 6.78 s + 6.5 s.
	m := DefaultModel()
	tenGB := int64(10 * 1e9)
	w, err := m.WriteCost(Permanent, tenGB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Seconds()-18.90) > 0.1 {
		t.Errorf("permanent write of 10 GB costs %.2fs, want ~18.90s", w.Seconds())
	}
	bw, err := m.WriteCost(Buffer, tenGB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bw.Seconds()-6.78) > 0.1 {
		t.Errorf("buffer write of 10 GB costs %.2fs, want ~6.78s", bw.Seconds())
	}
	br, err := m.ReadCost(Buffer, tenGB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(br.Seconds()-6.50) > 0.1 {
		t.Errorf("buffer read of 10 GB costs %.2fs, want ~6.50s", br.Seconds())
	}
}

func TestModelAccumulates(t *testing.T) {
	m := DefaultModel()
	if _, err := m.RecordWrite(Buffer, 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RecordWrite(Buffer, 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RecordRead(Buffer, 5e8); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RecordWrite(Permanent, 1e8); err != nil {
		t.Fatal(err)
	}
	if m.BytesWritten(Buffer) != 2e9 || m.BytesRead(Buffer) != 5e8 || m.BytesWritten(Permanent) != 1e8 {
		t.Errorf("byte counters wrong: %d %d %d", m.BytesWritten(Buffer), m.BytesRead(Buffer), m.BytesWritten(Permanent))
	}
	if m.TotalIO() != m.WriteTime(Buffer)+m.ReadTime(Buffer)+m.WriteTime(Permanent) {
		t.Error("TotalIO does not sum tier components")
	}
	m.Reset()
	if m.TotalIO() != 0 || m.BytesWritten(Buffer) != 0 {
		t.Error("Reset did not clear counters")
	}
}

func TestModelErrors(t *testing.T) {
	m := NewModel(map[Tier]TierSpec{Buffer: {WriteBandwidth: 1e9, ReadBandwidth: 1e9}})
	if _, err := m.WriteCost(Permanent, 10); err == nil {
		t.Error("expected error for unconfigured tier")
	}
	if _, err := m.WriteCost(Buffer, -1); err == nil {
		t.Error("expected error for negative bytes")
	}
	if _, err := m.ReadCost(Buffer, -1); err == nil {
		t.Error("expected error for negative bytes on read")
	}
}

func TestModelLatencyDominatesSmallOps(t *testing.T) {
	m := NewModel(map[Tier]TierSpec{
		Permanent: {WriteBandwidth: 1e9, ReadBandwidth: 1e9, Latency: 10 * time.Millisecond},
	})
	d, err := m.WriteCost(Permanent, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d < 10*time.Millisecond {
		t.Errorf("1-byte write cost %v below latency", d)
	}
}

func testWindow(d grid.Dims, slices int) *grid.Window {
	w := grid.NewWindow(d)
	for ts := 0; ts < slices; ts++ {
		f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
		for i := range f.Data {
			f.Data[i] = math.Sin(float64(i)*0.1 + float64(ts)*0.2)
		}
		if err := w.Append(f, float64(ts)); err != nil {
			panic(err)
		}
	}
	return w
}

func TestContainerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.stw")
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}

	opts := core.DefaultOptions()
	opts.WindowSize = 5
	opts.Ratio = 8
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}

	cw1, err := core.Compress(context.Background(), comp, testWindow(d, 5), core.Copy)
	if err != nil {
		t.Fatal(err)
	}
	cw2, err := core.Compress(context.Background(), comp, testWindow(d, 3), core.Copy)
	if err != nil {
		t.Fatal(err)
	}

	w, err := CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	i1, err := w.Append(cw1)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := w.Append(cw2)
	if err != nil {
		t.Fatal(err)
	}
	if i1 != 0 || i2 != 1 {
		t.Errorf("indices %d, %d", i1, i2)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(cw1); err == nil {
		t.Error("append after close must fail")
	}

	r, err := OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumWindows() != 2 {
		t.Fatalf("NumWindows = %d", r.NumWindows())
	}
	// Random access: read the second window first.
	got2, err := r.ReadWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	if got2.NumSlices() != 3 {
		t.Errorf("window 1 has %d slices, want 3", got2.NumSlices())
	}
	got1, err := r.ReadWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	if got1.NumSlices() != 5 {
		t.Errorf("window 0 has %d slices, want 5", got1.NumSlices())
	}
	// Decompression must succeed from container-loaded windows.
	win, err := core.Decompress(got1)
	if err != nil {
		t.Fatal(err)
	}
	if win.Len() != 5 {
		t.Errorf("decompressed %d slices", win.Len())
	}
	if sz, err := r.WindowSizeBytes(0); err != nil || sz <= 0 {
		t.Errorf("WindowSizeBytes = %d, %v", sz, err)
	}
	if _, err := r.ReadWindow(5); err == nil {
		t.Error("out-of-range read must fail")
	}
	if _, err := r.WindowSizeBytes(-1); err == nil {
		t.Error("out-of-range size must fail")
	}
}

func TestOpenContainerRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.stw")
	if err := writeFile(path, []byte("this is not a container file at all")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenContainer(path); err == nil {
		t.Error("expected error for garbage file")
	}
	tiny := filepath.Join(dir, "tiny.stw")
	if err := writeFile(tiny, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenContainer(tiny); err == nil {
		t.Error("expected error for tiny file")
	}
	if _, err := OpenContainer(filepath.Join(dir, "missing.stw")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestBurstBuffer(t *testing.T) {
	dir := t.TempDir()
	model := DefaultModel()
	d := grid.Dims{Nx: 6, Ny: 5, Nz: 4}
	b, err := NewBurstBuffer(dir, model, d)
	if err != nil {
		t.Fatal(err)
	}
	f := grid.NewField3D(6, 5, 4)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	id, err := PutSliceOf(b, f)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d", b.Len())
	}
	if model.BytesWritten(Buffer) != f.RawSizeBytes(4) {
		t.Errorf("recorded %d bytes written", model.BytesWritten(Buffer))
	}
	g, err := GetSliceOf[float64](b, id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Abs(f.Data[i]-g.Data[i]) > 1e-4 {
			t.Fatalf("sample %d: %g vs %g", i, f.Data[i], g.Data[i])
		}
	}
	if model.BytesRead(Buffer) != f.RawSizeBytes(4) {
		t.Errorf("recorded %d bytes read", model.BytesRead(Buffer))
	}
	if err := b.Drop(id); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Error("Drop did not remove slice")
	}
	if _, err := GetSliceOf[float64](b, id); err == nil {
		t.Error("reading dropped slice must fail")
	}
	if err := b.Drop(id); err == nil {
		t.Error("double drop must fail")
	}
	bad := grid.NewField3D(2, 2, 2)
	if _, err := PutSliceOf(b, bad); err == nil {
		t.Error("dims mismatch must fail")
	}
}

func TestBurstBufferValidation(t *testing.T) {
	d := grid.Dims{Nx: 2, Ny: 2, Nz: 2}
	if _, err := NewBurstBuffer(t.TempDir(), nil, d); err == nil {
		t.Error("expected error for nil model")
	}
	if _, err := NewBurstBuffer(t.TempDir(), DefaultModel(), grid.Dims{}); err == nil {
		t.Error("expected error for invalid dims")
	}
	if _, err := NewBurstBuffer("/does/not/exist", DefaultModel(), d); err == nil {
		t.Error("expected error for missing dir")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestContainerDetectsPayloadCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.stw")
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	opts := core.DefaultOptions()
	opts.WindowSize = 5
	opts.Ratio = 8
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := core.Compress(context.Background(), comp, testWindow(d, 5), core.Copy)
	if err != nil {
		t.Fatal(err)
	}
	w, err := CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(cw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one bit deep inside the float payload — structurally valid but
	// silently wrong without checksums.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenContainer(path)
	if err != nil {
		t.Fatal(err) // index is intact; open should succeed
	}
	defer r.Close()
	if _, err := r.ReadWindow(0); err == nil {
		t.Error("payload bit-flip not detected by CRC")
	}
}

func TestContainerDeflateOption(t *testing.T) {
	dir := t.TempDir()
	d := grid.Dims{Nx: 12, Ny: 12, Nz: 12}
	opts := core.DefaultOptions()
	opts.WindowSize = 8
	opts.Ratio = 64
	write := func(name string, cdc codec.Codec) (int64, []byte) {
		opts.Codec = cdc
		comp, err := core.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		cw, err := core.Compress(context.Background(), comp, testWindow(d, 8), core.Copy)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		w, err := CreateContainer(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(cw); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Verify it reads back and decompresses.
		r, err := OpenContainer(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got, err := r.ReadWindow(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Decompress(got); err != nil {
			t.Fatal(err)
		}
		return int64(len(file)), file
	}
	rawSize, _ := write("raw.stw", codec.Sparse())
	deflSize, defl := write("defl.stw", codec.Deflate())
	// Recorded from the container's former Deflate flag, which wrote the
	// same sparse window through the DEFLATE framing.
	const wantSHA = "02c75c197404be9f10fb034678cf565b2bb0b056c444ab0a80331730d7f32cf7"
	if got := fmt.Sprintf("%x", sha256.Sum256(defl)); got != wantSHA {
		t.Errorf("deflated container SHA-256 %s, want %s", got, wantSHA)
	}
	if deflSize >= rawSize {
		t.Errorf("deflated container %d bytes not below raw %d", deflSize, rawSize)
	}
}
