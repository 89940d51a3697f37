package grid

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func randField(rng *rand.Rand, nx, ny, nz int) *Field3D {
	f := NewField3D(nx, ny, nz)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func TestDims(t *testing.T) {
	d := Dims{4, 5, 6}
	if d.Len() != 120 {
		t.Errorf("Len = %d, want 120", d.Len())
	}
	if !d.Valid() {
		t.Error("expected valid dims")
	}
	if (Dims{0, 5, 6}).Valid() {
		t.Error("expected invalid dims with zero extent")
	}
	if d.String() != "4x5x6" {
		t.Errorf("String = %q", d.String())
	}
}

func TestFieldIndexing(t *testing.T) {
	f := NewField3D(3, 4, 5)
	f.Set(2, 3, 4, 7.5)
	if got := f.At(2, 3, 4); got != 7.5 {
		t.Errorf("At = %g, want 7.5", got)
	}
	if got := f.Index(2, 3, 4); got != len(f.Data)-1 {
		t.Errorf("Index of last corner = %d, want %d", got, len(f.Data)-1)
	}
	if got := f.Index(0, 0, 0); got != 0 {
		t.Errorf("Index of origin = %d, want 0", got)
	}
	// X-fastest ordering: (1,0,0) is adjacent to (0,0,0).
	if got := f.Index(1, 0, 0); got != 1 {
		t.Errorf("Index(1,0,0) = %d, want 1 (X-fastest)", got)
	}
}

func TestFromData(t *testing.T) {
	data := make([]float64, 24)
	f, err := FromDataOf(2, 3, 4, data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Dims != (Dims{2, 3, 4}) {
		t.Errorf("dims = %v", f.Dims)
	}
	if _, err := FromDataOf(2, 3, 4, make([]float64, 23)); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := FromDataOf[float64](0, 3, 4, nil); err == nil {
		t.Error("expected invalid-dims error")
	}
}

func TestNewField3DPanicsOnInvalidDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid dims")
		}
	}()
	NewField3D(-1, 2, 3)
}

func TestCloneIsDeep(t *testing.T) {
	f := NewField3D(2, 2, 2)
	f.Fill(1)
	c := f.Clone()
	c.Data[0] = 99
	if f.Data[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestMinMaxRange(t *testing.T) {
	f := NewField3D(2, 2, 1)
	copy(f.Data, []float64{3, -1, 7, math.NaN()})
	min, max := f.MinMax()
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%g, %g), want (-1, 7)", min, max)
	}
}

func TestWindowAppendAndRange(t *testing.T) {
	w := NewWindow(Dims{2, 2, 1})
	a := NewField3D(2, 2, 1)
	a.Fill(1)
	b := NewField3D(2, 2, 1)
	b.Fill(5)
	if err := w.Append(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(b, 1); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 || w.TotalSamples() != 8 {
		t.Errorf("Len=%d TotalSamples=%d", w.Len(), w.TotalSamples())
	}
	if w.Range() != 4 {
		t.Errorf("window Range = %g, want 4", w.Range())
	}
	bad := NewField3D(3, 2, 1)
	if err := w.Append(bad, 2); err == nil {
		t.Error("expected dims-mismatch error")
	}
}

func TestWindowSubsample(t *testing.T) {
	w := NewWindow(Dims{1, 1, 1})
	for i := 0; i < 10; i++ {
		f := NewField3D(1, 1, 1)
		f.Data[0] = float64(i)
		if err := w.Append(f, float64(i)*2); err != nil {
			t.Fatal(err)
		}
	}
	half, err := w.Subsample(2)
	if err != nil {
		t.Fatal(err)
	}
	if half.Len() != 5 {
		t.Fatalf("subsample(2) len = %d, want 5", half.Len())
	}
	for i, s := range half.Slices {
		if s.Data[0] != float64(2*i) {
			t.Errorf("subsample slice %d = %g, want %g", i, s.Data[0], float64(2*i))
		}
		if half.Times[i] != float64(4*i) {
			t.Errorf("subsample time %d = %g, want %g", i, half.Times[i], float64(4*i))
		}
	}
	quarter, err := w.Subsample(4)
	if err != nil {
		t.Fatal(err)
	}
	if quarter.Len() != 3 { // slices 0,4,8
		t.Errorf("subsample(4) len = %d, want 3", quarter.Len())
	}
	if _, err := w.Subsample(0); err == nil {
		t.Error("expected error for stride 0")
	}
}

func TestWindowPartition(t *testing.T) {
	w := NewWindow(Dims{1, 1, 1})
	for i := 0; i < 23; i++ {
		f := NewField3D(1, 1, 1)
		f.Data[0] = float64(i)
		if err := w.Append(f, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	chunks, err := w.Partition(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 {
		t.Fatalf("partition count = %d, want 3", len(chunks))
	}
	wantLens := []int{10, 10, 3}
	for i, c := range chunks {
		if c.Len() != wantLens[i] {
			t.Errorf("chunk %d len = %d, want %d", i, c.Len(), wantLens[i])
		}
	}
	if chunks[2].Slices[2].Data[0] != 22 {
		t.Error("last chunk does not preserve order")
	}
	if _, err := w.Partition(0); err == nil {
		t.Error("expected error for size 0")
	}
}

func TestGatherScatterSeries(t *testing.T) {
	w := NewWindow(Dims{2, 1, 1})
	for i := 0; i < 4; i++ {
		f := NewField3D(2, 1, 1)
		f.Data[0] = float64(i)
		f.Data[1] = float64(i) * 10
		if err := w.Append(f, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]float64, 4)
	got := w.GatherSeries(1, buf)
	want := []float64{0, 10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GatherSeries = %v, want %v", got, want)
		}
	}
	for i := range got {
		got[i] += 1
	}
	w.ScatterSeries(1, got)
	if w.Slices[2].Data[1] != 21 {
		t.Errorf("ScatterSeries did not write back: %g", w.Slices[2].Data[1])
	}
}

func TestWindowCloneIsDeep(t *testing.T) {
	w := NewWindow(Dims{1, 1, 1})
	f := NewField3D(1, 1, 1)
	f.Data[0] = 1
	if err := w.Append(f, 0); err != nil {
		t.Fatal(err)
	}
	c := w.Clone()
	c.Slices[0].Data[0] = 99
	c.Times[0] = 99
	if w.Slices[0].Data[0] != 1 || w.Times[0] != 0 {
		t.Error("window Clone shares storage")
	}
}

func TestRawFloat32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := randField(rng, 4, 3, 2)
	var buf bytes.Buffer
	if err := f.WriteRawFloat32(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 4*3*2*4 {
		t.Errorf("serialized size = %d, want %d", buf.Len(), 4*3*2*4)
	}
	g, err := ReadRawFloat32Of[float64](&buf, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Abs(f.Data[i]-g.Data[i]) > 1e-6 {
			t.Fatalf("sample %d: %g vs %g", i, f.Data[i], g.Data[i])
		}
	}
}

func TestReadRawTruncated(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(make([]byte, 10)) // not enough for 2x2x2 float32
	if _, err := ReadRawFloat32Of[float64](&buf, 2, 2, 2); err == nil {
		t.Error("expected error on truncated input")
	}
}

func TestSaveLoadRawFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vol.raw")
	rng := rand.New(rand.NewSource(3))
	f := randField(rng, 5, 4, 3)
	if err := f.SaveRawFile(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != f.RawSizeBytes(4) {
		t.Errorf("file size %d, want %d", info.Size(), f.RawSizeBytes(4))
	}
	g, err := LoadRawFileOf[float64](path, 5, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Abs(f.Data[i]-g.Data[i]) > 1e-6 {
			t.Fatalf("sample %d mismatch", i)
		}
	}
}

// Property: Subsample(1) is the identity; Partition chunks reassemble to the
// original slice sequence.
func TestQuickWindowInvariants(t *testing.T) {
	prop := func(nRaw, sizeRaw uint8) bool {
		n := int(nRaw)%50 + 1
		size := int(sizeRaw)%10 + 1
		w := NewWindow(Dims{1, 1, 1})
		for i := 0; i < n; i++ {
			f := NewField3D(1, 1, 1)
			f.Data[0] = float64(i)
			if err := w.Append(f, float64(i)); err != nil {
				return false
			}
		}
		same, err := w.Subsample(1)
		if err != nil || same.Len() != n {
			return false
		}
		chunks, err := w.Partition(size)
		if err != nil {
			return false
		}
		total, idx := 0, 0
		for _, c := range chunks {
			total += c.Len()
			if c.Len() > size {
				return false
			}
			for _, s := range c.Slices {
				if s.Data[0] != float64(idx) {
					return false
				}
				idx++
			}
		}
		return total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
