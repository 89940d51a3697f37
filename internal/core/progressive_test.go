package core

import (
	"bytes"
	"context"
	"io"
	"math"
	"slices"
	"testing"

	"stwave/internal/codec"
	"stwave/internal/compress"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/transform"
	"stwave/internal/wavelet"
)

// progressiveGeometries is the Table-1-shaped fixture set the refinement
// property is proven over: the paper's cubic windows plus odd extents,
// a flat pancake grid (exercises axis-dependent level budgets), and a
// short end-of-stream window.
var progressiveGeometries = []struct {
	name   string
	dims   grid.Dims
	slices int
}{
	{"cube16x10", grid.Dims{Nx: 16, Ny: 16, Nz: 16}, 10},
	{"odd15x9x7", grid.Dims{Nx: 15, Ny: 10, Nz: 9}, 7},
	{"flat32x4", grid.Dims{Nx: 32, Ny: 32, Nz: 4}, 6},
	{"short-window", grid.Dims{Nx: 16, Ny: 16, Nz: 16}, 3},
}

var progressiveCodecs = []codec.Codec{codec.Sparse(), codec.Deflate(), codec.Entropy()}

func progressiveOpts(cdc codec.Codec, slices int) Options {
	o := DefaultOptions()
	o.WindowSize = slices
	o.Ratio = 16
	o.Codec = cdc
	o.Progressive = true
	o.Workers = 2
	return o
}

func windowsBitIdentical(t *testing.T, a, b *grid.Window, label string) {
	t.Helper()
	if a.Dims != b.Dims || len(a.Slices) != len(b.Slices) {
		t.Fatalf("%s: shape mismatch: %v/%d vs %v/%d", label, a.Dims, len(a.Slices), b.Dims, len(b.Slices))
	}
	for i := range a.Slices {
		av, bv := a.Slices[i].Data, b.Slices[i].Data
		for j := range av {
			if math.Float64bits(av[j]) != math.Float64bits(bv[j]) {
				t.Fatalf("%s: slice %d sample %d differs: %g vs %g", label, i, j, av[j], bv[j])
			}
		}
	}
}

// gatherGroup copies the group's coefficients out of a full-grid Mallat
// layout (dims full) into dst in canonical order, returning the number
// of coefficients written. dst must have room for g.Count values. It is
// the dense reference levelIndex.split is pinned against.
func gatherGroup[F num.Float](dst, src []F, full grid.Dims, g LevelGroup) int {
	n := 0
	groupRows(g, full, func(rowBase, x0, runLen int) {
		copy(dst[n:n+runLen], src[rowBase+x0:rowBase+x0+runLen])
		n += runLen
	})
	return n
}

// TestLevelIndexMatchesGather pins the survivor split to the dense
// gather: for every geometry and level depth, splitting a sparse window's
// survivors into level groups yields exactly the nonzeros of each
// gathered group, in canonical order.
func TestLevelIndexMatchesGather(t *testing.T) {
	for _, g := range progressiveGeometries {
		datas := make([][]float64, 3)
		for i := range datas {
			datas[i] = make([]float64, g.dims.Len())
			for j := range datas[i] {
				if (j*7+i*3)%5 == 0 {
					datas[i][j] = float64(j + 1)
				}
			}
		}
		for levels := 0; levels <= 4; levels++ {
			li := newLevelIndex(g.dims, levels)
			for _, workers := range []int{1, 3} {
				survs := compress.Nonzeros(datas, workers)
				n := 0
				for _, s := range survs {
					n += len(s.Idx)
				}
				rows := li.split(survs, workers, make([]int, n), make([]float64, n))
				for gi, lg := range li.groups {
					for i, d := range datas {
						buf := make([]float64, lg.Count)
						gatherGroup(buf, d, g.dims, lg)
						want := compress.Nonzeros([][]float64{buf}, 1)[0]
						got := rows[gi][i]
						if got.Total != want.Total || !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Val, want.Val) {
							t.Fatalf("%s levels=%d group %d slice %d: split %+v, gather %+v", g.name, levels, gi, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestLevelGroupsPartition proves the level groups tile the grid exactly
// and that gather/scatter round-trips the Mallat layout.
func TestLevelGroupsPartition(t *testing.T) {
	for _, g := range progressiveGeometries {
		levels := transform.Levels3D(wavelet.CDF97, g.dims)
		groups := LevelGroups(g.dims, levels)
		if len(groups) != levels+1 {
			t.Fatalf("%s: %d groups for %d levels", g.name, len(groups), levels)
		}
		total := 0
		for _, lg := range groups {
			total += lg.Count
		}
		if total != g.dims.Len() {
			t.Fatalf("%s: group counts sum to %d, grid has %d", g.name, total, g.dims.Len())
		}
		src := make([]float64, g.dims.Len())
		for i := range src {
			src[i] = float64(i + 1)
		}
		dst := make([]float64, g.dims.Len())
		for _, lg := range groups {
			buf := make([]float64, lg.Count)
			if n := gatherGroup(buf, src, g.dims, lg); n != lg.Count {
				t.Fatalf("%s: gathered %d of %d", g.name, n, lg.Count)
			}
			scatterGroup(dst, g.dims, buf, lg)
		}
		for i := range src {
			if src[i] != dst[i] {
				t.Fatalf("%s: gather/scatter not a permutation at %d", g.name, i)
			}
		}
	}
}

// TestProgressiveFullDecodeMatchesLegacy proves the level-major layout
// is lossless relative to the slice-major one: the same window
// compressed both ways decodes bit-identically for the value-exact
// codecs (sparse, deflate). The entropy codec quantizes per block, so
// regrouping blocks by level legitimately shifts values within its
// quantization step; for it the comparison is a tight tolerance
// instead.
func TestProgressiveFullDecodeMatchesLegacy(t *testing.T) {
	for _, cdc := range progressiveCodecs {
		for _, g := range progressiveGeometries {
			w := coherentWindow(g.dims, g.slices, 0.3)

			legacyOpts := progressiveOpts(cdc, g.slices)
			legacyOpts.Progressive = false
			lc, err := New(legacyOpts)
			if err != nil {
				t.Fatal(err)
			}
			lr, _, err := lc.RoundTrip(w)
			if err != nil {
				t.Fatalf("%s/%s legacy: %v", cdc.Name(), g.name, err)
			}

			pc, err := New(progressiveOpts(cdc, g.slices))
			if err != nil {
				t.Fatal(err)
			}
			pcw, err := Compress(context.Background(), pc, w, Copy)
			if err != nil {
				t.Fatalf("%s/%s progressive compress: %v", cdc.Name(), g.name, err)
			}
			if !pcw.Progressive() {
				t.Fatalf("%s/%s: window not progressive", cdc.Name(), g.name)
			}
			pr, err := Decompress(pcw)
			if err != nil {
				t.Fatalf("%s/%s progressive decompress: %v", cdc.Name(), g.name, err)
			}
			if cdc.ID() == codec.IDEntropy {
				for i := range lr.Slices {
					for j := range lr.Slices[i].Data {
						if d := math.Abs(lr.Slices[i].Data[j] - pr.Slices[i].Data[j]); d > 1e-3 {
							t.Fatalf("%s/%s: slice %d sample %d differs by %g beyond quantization",
								cdc.Name(), g.name, i, j, d)
						}
					}
				}
				continue
			}
			windowsBitIdentical(t, lr, pr, cdc.Name()+"/"+g.name)
		}
	}
}

// TestDecompressLevelsGeometry checks coarse reconstructions have the
// approximation-cube extents and track a coarse preview of the original
// field (approxRescale applied), at every level.
func TestDecompressLevelsGeometry(t *testing.T) {
	g := progressiveGeometries[0]
	w := coherentWindow(g.dims, g.slices, 0.0)
	c, err := New(progressiveOpts(codec.Sparse(), g.slices))
	if err != nil {
		t.Fatal(err)
	}
	cw, err := Compress(context.Background(), c, w, Copy)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= cw.SpatialLevels; k++ {
		coarse, err := levelsOf[float64](cw, k)
		if err != nil {
			t.Fatal(err)
		}
		want := transform.CoarseDims(g.dims, cw.SpatialLevels-k)
		if coarse.Dims != want {
			t.Fatalf("level %d dims %v, want %v", k, coarse.Dims, want)
		}
		if len(coarse.Slices) != g.slices {
			t.Fatalf("level %d has %d slices, want %d", k, len(coarse.Slices), g.slices)
		}
		// The rescaled approximation must be the same magnitude as the
		// field itself (a wildly scaled result means the sqrt(2)^3L gain
		// went uncorrected).
		var maxAbs float64
		for _, f := range coarse.Slices {
			for _, v := range f.Data {
				if a := math.Abs(v); a > maxAbs {
					maxAbs = a
				}
			}
		}
		if maxAbs < 0.1 || maxAbs > 10 {
			t.Fatalf("level %d amplitude %g outside the field's O(1) range", k, maxAbs)
		}
	}
	if _, err := levelsOf[float64](cw, cw.SpatialLevels+1); err == nil {
		t.Fatal("accepted level beyond SpatialLevels")
	}
}

// TestProgressiveSerializeRoundTrip proves v4 bytes decode to the same
// samples, that partial reads through the level table decode exactly
// like an in-memory partial decode while reading strictly fewer bytes,
// and that a reader stopped at level K never touches later bytes.
func TestProgressiveSerializeRoundTrip(t *testing.T) {
	for _, cdc := range progressiveCodecs {
		g := progressiveGeometries[1] // odd dims: the unfriendly case
		w := coherentWindow(g.dims, g.slices, 0.7)
		c, err := New(progressiveOpts(cdc, g.slices))
		if err != nil {
			t.Fatal(err)
		}
		cw, err := Compress(context.Background(), c, w, Copy)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := cw.WriteTo(&buf); err != nil {
			t.Fatalf("%s: write: %v", cdc.Name(), err)
		}
		raw := buf.Bytes()

		back, err := ReadCompressedWindow(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: read: %v", cdc.Name(), err)
		}
		if !back.Progressive() {
			t.Fatalf("%s: deserialized window lost progressive layout", cdc.Name())
		}
		a, err := Decompress(cw)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Decompress(back)
		if err != nil {
			t.Fatal(err)
		}
		windowsBitIdentical(t, a, b, cdc.Name()+" serialize roundtrip")

		wi, table, payloadStart, err := ReadWindowLevelTable(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: level table: %v", cdc.Name(), err)
		}
		if !wi.Progressive || wi.SpatialLevels != cw.SpatialLevels {
			t.Fatalf("%s: level-table info %+v inconsistent", cdc.Name(), wi)
		}
		if got := payloadStart + table.PrefixBytes(len(table.Extents)-1); got != int64(len(raw)) {
			t.Fatalf("%s: table accounts for %d bytes, stream has %d", cdc.Name(), got, len(raw))
		}
		for k := 0; k < len(table.Extents); k++ {
			prefix := raw[:payloadStart+table.PrefixBytes(k)]
			if k < len(table.Extents)-1 && len(prefix) >= len(raw) {
				t.Fatalf("%s: level %d prefix does not save bytes", cdc.Name(), k)
			}
			pcw, err := ReadCompressedWindowLevels(bytes.NewReader(prefix), k)
			if err != nil {
				t.Fatalf("%s: partial read level %d: %v", cdc.Name(), k, err)
			}
			pa, err := levelsOf[float64](pcw, k)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := levelsOf[float64](cw, k)
			if err != nil {
				t.Fatal(err)
			}
			windowsBitIdentical(t, pb, pa, cdc.Name()+" partial read")
		}
	}
}

// TestDropFinestLevel exercises the ingest degrade step: shedding the
// finest group shrinks the encoding, survives serialization, and still
// decodes at full dims (with zeroed fine detail).
func TestDropFinestLevel(t *testing.T) {
	g := progressiveGeometries[0]
	w := coherentWindow(g.dims, g.slices, 0.5)
	c, err := New(progressiveOpts(codec.Sparse(), g.slices))
	if err != nil {
		t.Fatal(err)
	}
	cw, err := Compress(context.Background(), c, w, Copy)
	if err != nil {
		t.Fatal(err)
	}
	full := cw.EncodedSizeBytes()
	shed, ok := cw.DropFinestLevel()
	if !ok {
		t.Fatal("DropFinestLevel refused a full progressive window")
	}
	if shed.EncodedSizeBytes() >= full {
		t.Fatalf("shedding did not shrink: %d -> %d", full, shed.EncodedSizeBytes())
	}
	if shed.NumSlices() != cw.NumSlices() {
		t.Fatal("shedding changed the slice count")
	}
	var buf bytes.Buffer
	if _, err := shed.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCompressedWindow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Groups) != len(shed.Groups) {
		t.Fatalf("shed window round-tripped with %d groups, want %d", len(back.Groups), len(shed.Groups))
	}
	recon, err := Decompress(back)
	if err != nil {
		t.Fatal(err)
	}
	if recon.Dims != g.dims {
		t.Fatalf("shed decode dims %v, want %v", recon.Dims, g.dims)
	}
	// A window shed to the bare approximation refuses further drops.
	for {
		next, ok := shed.DropFinestLevel()
		if !ok {
			break
		}
		shed = next
	}
	if len(shed.Groups) != 1 {
		t.Fatalf("drop chain stopped at %d groups, want 1", len(shed.Groups))
	}

	// Shed to one group, the window holds one row like a slice-major
	// window, but it must still serialize, read and decode level-major.
	buf.Reset()
	if _, err := shed.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[4]&progressiveFlag == 0 {
		t.Fatalf("one-group shed window header byte 4 = %#x lacks the progressive flag", buf.Bytes()[4])
	}
	_, table, _, err := ReadWindowLevelTable(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Extents) != 1 {
		t.Fatalf("one-group shed window table has %d extents, want 1", len(table.Extents))
	}
	back, err = ReadCompressedWindow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	coarse := Query{MaxLevel: 0, Slice: All}
	want, err := Reconstruct[float64](context.Background(), cw, coarse)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct[float64](context.Background(), back, coarse)
	if err != nil {
		t.Fatal(err)
	}
	windowsBitIdentical(t, want, got, "one-group shed window at level 0")
}

// TestProgressiveLegacyInterop: legacy windows refuse level-addressed
// APIs typed, and a legacy byte stream still decodes unchanged (the
// backward-compatibility contract of the codec registry).
func TestProgressiveLegacyInterop(t *testing.T) {
	g := progressiveGeometries[0]
	w := coherentWindow(g.dims, g.slices, 0.2)
	o := progressiveOpts(codec.Sparse(), g.slices)
	o.Progressive = false
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := Compress(context.Background(), c, w, Copy)
	if err != nil {
		t.Fatal(err)
	}
	if cw.Progressive() {
		t.Fatal("legacy options produced a progressive window")
	}
	if _, err := levelsOf[float64](cw, 0); err != ErrNotProgressive {
		t.Fatalf("level-0 query on legacy window: %v, want ErrNotProgressive", err)
	}
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadWindowLevelTable(bytes.NewReader(buf.Bytes())); err != ErrNotProgressive {
		t.Fatalf("ReadWindowLevelTable on legacy bytes: %v, want ErrNotProgressive", err)
	}
	if _, err := ReadCompressedWindowLevels(bytes.NewReader(buf.Bytes()), 0); err != ErrNotProgressive {
		t.Fatalf("ReadCompressedWindowLevels on legacy bytes: %v, want ErrNotProgressive", err)
	}
	back, err := ReadCompressedWindow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Decompress(cw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompress(back)
	if err != nil {
		t.Fatal(err)
	}
	windowsBitIdentical(t, a, b, "legacy serialize roundtrip")
}

// TestProgressiveTruncation: corrupting or truncating the level-major
// stream fails typed at the right group, never panics, and flipping a
// payload byte trips the per-group CRC.
func TestProgressiveTruncation(t *testing.T) {
	g := progressiveGeometries[0]
	w := coherentWindow(g.dims, g.slices, 0.9)
	c, err := New(progressiveOpts(codec.Sparse(), g.slices))
	if err != nil {
		t.Fatal(err)
	}
	cw, err := Compress(context.Background(), c, w, Copy)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	_, table, payloadStart, err := ReadWindowLevelTable(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Full read of a truncated stream fails cleanly.
	if _, err := ReadCompressedWindow(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("accepted truncated progressive stream")
	}
	// A partial read for level 0 must fail if even the level-0 region is cut.
	short := payloadStart + table.PrefixBytes(0) - 1
	if _, err := ReadCompressedWindowLevels(bytes.NewReader(raw[:short]), 0); err == nil {
		t.Fatal("accepted truncated level-0 region")
	}
	// Flip one payload byte inside group 0: the group CRC must catch it.
	corrupt := append([]byte(nil), raw...)
	corrupt[payloadStart+1] ^= 0xff
	if _, err := ReadCompressedWindowLevels(bytes.NewReader(corrupt), 0); err == nil {
		t.Fatal("accepted corrupted level-0 payload")
	}
	// Forge a huge group length: must fail typed, not allocate or panic.
	forged := append([]byte(nil), raw...)
	off := int(payloadStart) - len(table.Extents)*12
	for i := 0; i < 8; i++ {
		forged[off+i] = 0xff
	}
	if _, err := ReadCompressedWindow(bytes.NewReader(forged)); err == nil {
		t.Fatal("accepted forged group length")
	}
}

// TestReadCompressedWindowLevelsStopsReading proves the partial reader
// never touches bytes past the requested level group — the contract the
// server's byte-savings accounting depends on.
func TestReadCompressedWindowLevelsStopsReading(t *testing.T) {
	g := progressiveGeometries[0]
	w := coherentWindow(g.dims, g.slices, 0.4)
	c, err := New(progressiveOpts(codec.Sparse(), g.slices))
	if err != nil {
		t.Fatal(err)
	}
	cw, err := Compress(context.Background(), c, w, Copy)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	_, table, payloadStart, err := ReadWindowLevelTable(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	cr := &countingReader{r: bytes.NewReader(raw)}
	if _, err := ReadCompressedWindowLevels(cr, 0); err != nil {
		t.Fatal(err)
	}
	want := payloadStart + table.PrefixBytes(0)
	if cr.n > want {
		t.Fatalf("level-0 read consumed %d bytes, table bounds it at %d", cr.n, want)
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
