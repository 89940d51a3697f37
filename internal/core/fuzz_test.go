package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"stwave/internal/codec"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/transform"
)

// FuzzRecordFrame hammers the record-frame header codec: ParseRecordHeader
// must never panic or read past its input, must reject anything that is
// not a well-formed frame with ErrNotRecord semantics, and any header it
// accepts must re-encode to the identical bytes (the property recovery
// scans rely on to find the end of the durable journal).
func FuzzRecordFrame(f *testing.F) {
	valid := EncodeRecordHeader(RecordHeader{Length: 4096, PayloadCRC: 0xdeadbeef})
	f.Add(valid[:])
	f.Add([]byte("STWR"))
	f.Add([]byte{})
	f.Add(make([]byte, RecordHeaderSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseRecordHeader(data)
		if err != nil {
			return
		}
		if h.Length < 0 {
			t.Fatalf("accepted negative payload length %d", h.Length)
		}
		reenc := EncodeRecordHeader(h)
		if !bytes.Equal(reenc[:], data[:RecordHeaderSize]) {
			t.Fatalf("accepted header does not round-trip: parsed %+v, re-encoded % x, input % x",
				h, reenc[:], data[:RecordHeaderSize])
		}
	})
}

// FuzzGapMarker hammers the gap-marker codec the same way FuzzRecordFrame
// hammers record frames: ParseGapMarker must never panic, must reject
// malformed input with ErrNotGap semantics, and any marker it accepts must
// re-encode to the identical bytes — the property the ingest crash matrix
// relies on when it reconciles a recovered container's timeline.
func FuzzGapMarker(f *testing.F) {
	valid := GapMarker{Slices: 20, T0: 40, T1: 59, Reason: GapShed}.Encode()
	f.Add(valid[:])
	f.Add([]byte("STWG"))
	f.Add([]byte{})
	f.Add(make([]byte, GapMarkerSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGapMarker(data)
		if err != nil {
			return
		}
		if g.Slices < 1 {
			t.Fatalf("accepted non-positive slice count %d", g.Slices)
		}
		reenc := g.Encode()
		if !bytes.Equal(reenc[:], data[:GapMarkerSize]) {
			t.Fatalf("accepted marker does not round-trip: parsed %+v, re-encoded % x, input % x",
				g, reenc[:], data[:GapMarkerSize])
		}
	})
}

// FuzzReadCompressedWindow hammers the window deserializer with mutated
// inputs: it must return an error or a valid window, never panic, and any
// window it accepts must decompress without panicking and answer a query
// derived from the input with the queried shape.
func FuzzReadCompressedWindow(f *testing.F) {
	// Seed with a real serialized window in each layout.
	w := coherentWindow(grid.Dims{Nx: 6, Ny: 5, Nz: 4}, 6, 0.2)
	for _, progressive := range []bool{false, true} {
		opts := DefaultOptions()
		opts.WindowSize = 6
		opts.Ratio = 4
		opts.Progressive = progressive
		comp, err := New(opts)
		if err != nil {
			f.Fatal(err)
		}
		cw, err := Compress(context.Background(), comp, w, Copy)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := cw.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("STWV"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cw, err := ReadCompressedWindow(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted: the header-only views must accept the same bytes and
		// agree with the full read.
		wi, err := ReadWindowInfo(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadCompressedWindow accepted what ReadWindowInfo refuses: %v", err)
		}
		if wi.Dims != cw.Dims || wi.NumSlices != cw.NumSlices() || wi.Mode != cw.Opts.Mode ||
			wi.SpatialKernel != cw.Opts.SpatialKernel || wi.TemporalKernel != cw.Opts.TemporalKernel ||
			wi.Codec != cw.Codec().ID() || wi.SpatialLevels != cw.SpatialLevels ||
			wi.Progressive != cw.Progressive() || wi.Precision != cw.Precision {
			t.Fatalf("header views disagree: info %+v, window %v/%d slices/%v/%v/%v/%v/L%d/progressive %v/%v",
				wi, cw.Dims, cw.NumSlices(), cw.Opts.Mode, cw.Opts.SpatialKernel, cw.Opts.TemporalKernel,
				cw.Codec().ID(), cw.SpatialLevels, cw.Progressive(), cw.Precision)
		}
		if cw.Progressive() {
			if _, _, _, err := ReadWindowLevelTable(bytes.NewReader(data)); err != nil {
				t.Fatalf("ReadWindowLevelTable refuses an accepted progressive window: %v", err)
			}
		}
		// Accepted: decompression may fail but must not panic, and a
		// success must produce the declared shape.
		win, err := Decompress(cw)
		if err != nil {
			return
		}
		if win.Len() != cw.NumSlices() {
			t.Fatalf("decompressed %d slices, header says %d", win.Len(), cw.NumSlices())
		}
		for _, s := range win.Slices {
			if s.Dims != cw.Dims {
				t.Fatalf("slice dims %v != header %v", s.Dims, cw.Dims)
			}
		}
		// A query derived from the input: an accepted answer has the
		// queried slice count and the level's coarse extents.
		q := Query{MaxLevel: len(data)%(cw.SpatialLevels+2) - 1, Slice: len(data)%(cw.NumSlices()+1) - 1}
		part, err := Reconstruct[float32](context.Background(), cw, q)
		if err != nil {
			return
		}
		wantSlices, depth := 1, q.MaxLevel
		if q.Slice == All {
			wantSlices = cw.NumSlices()
		}
		if depth == All {
			depth = cw.SpatialLevels
		}
		want := transform.CoarseDims(cw.Dims, cw.SpatialLevels-depth)
		if part.Len() != wantSlices || part.Dims != want {
			t.Fatalf("query %+v: %d slices of %v, want %d of %v", q, part.Len(), part.Dims, wantSlices, want)
		}
	})
}

// FuzzLevelTable hammers the progressive (v4) level-offset table parser
// and the partial-decode read path: forged group counts, lengths, and
// checksums must fail typed — never panic, never allocate from an
// attacker-controlled length — and anything the parser accepts must
// decode (fully and at level 0) without panicking.
func FuzzLevelTable(f *testing.F) {
	// Seed with a real progressive window.
	w := coherentWindow(grid.Dims{Nx: 6, Ny: 5, Nz: 4}, 6, 0.2)
	opts := DefaultOptions()
	opts.WindowSize = 6
	opts.Ratio = 4
	opts.Progressive = true
	comp, err := New(opts)
	if err != nil {
		f.Fatal(err)
	}
	cw, err := Compress(context.Background(), comp, w, Copy)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("STWV"))
	f.Add([]byte("STLT"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if wi, table, start, err := ReadWindowLevelTable(bytes.NewReader(data)); err == nil {
			if len(table.Extents) < 1 || len(table.Extents) > wi.SpatialLevels+1 {
				t.Fatalf("accepted table with %d groups for %d levels", len(table.Extents), wi.SpatialLevels)
			}
			if start < 40 {
				t.Fatalf("accepted payload start %d before the header end", start)
			}
			if table.PrefixBytes(len(table.Extents)-1) < 0 {
				t.Fatal("accepted table with negative total payload")
			}
		}
		if cw, err := ReadCompressedWindowLevels(bytes.NewReader(data), 0); err == nil {
			if _, err := levelsOf[float64](cw, 0); err != nil {
				_ = err // partial decode may fail typed, never panic
			}
		}
		cw, err := ReadCompressedWindow(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := Decompress(cw); err != nil {
			return
		}
	})
}

// FuzzMaxErrBound drives the error-bounded mode at either precision and
// codec with a random bound and ROI box on a window of at most 12³×4
// samples. Every case ends one of two ways: the serialized window
// reconstructs within both bounds, or Compress returns
// ErrBoundUnreachable.
func FuzzMaxErrBound(f *testing.F) {
	f.Add(int64(1), false, false, uint8(11), uint8(11), uint8(11), uint8(3), uint8(2), uint8(0), uint32(0), uint8(0))
	f.Add(int64(2), true, false, uint8(11), uint8(9), uint8(7), uint8(3), uint8(3), uint8(128), uint32(0x04030201), uint8(3))
	f.Add(int64(3), false, true, uint8(7), uint8(11), uint8(5), uint8(1), uint8(4), uint8(64), uint32(0x00ffffff), uint8(1))
	f.Add(int64(4), true, true, uint8(0), uint8(0), uint8(0), uint8(0), uint8(8), uint8(0), uint32(0), uint8(0))
	f.Add(int64(5), true, false, uint8(11), uint8(11), uint8(11), uint8(3), uint8(9), uint8(0), uint32(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, f32, entropy bool, nx, ny, nz, nt, boundExp, boundMant uint8, box uint32, roiDiv uint8) {
		d := grid.Dims{Nx: 1 + int(nx)%12, Ny: 1 + int(ny)%12, Nz: 1 + int(nz)%12}
		o := DefaultOptions()
		o.WindowSize = 4
		o.Workers = 2
		o.MaxErr = (1 + float64(boundMant)/256) * math.Pow(10, -float64(boundExp%10))
		if entropy {
			o.Codec = codec.Entropy()
		}
		if roiDiv > 0 {
			axis := func(n int, code uint32) (lo, hi int) {
				lo = int(code&0xff) % n
				return lo, lo + 1 + int(code>>8&0xff)%(n-lo)
			}
			roi := &ROIBounds{MaxErr: o.MaxErr / float64(1+roiDiv%16)}
			roi.X0, roi.X1 = axis(d.Nx, box)
			roi.Y0, roi.Y1 = axis(d.Ny, box>>8)
			roi.Z0, roi.Z1 = axis(d.Nz, box>>16)
			o.ROI = roi
		}
		slices := 1 + int(nt)%4
		if f32 {
			o.Precision = Float32
			checkMaxErrBound(t, o, fuzzWindow[float32](d, slices, seed))
		} else {
			checkMaxErrBound(t, o, fuzzWindow[float64](d, slices, seed))
		}
	})
}

// fuzzWindow fills a window with a smooth field plus seeded noise.
func fuzzWindow[F num.Float](d grid.Dims, slices int, seed int64) *grid.WindowOf[F] {
	rng := rand.New(rand.NewSource(seed))
	w := grid.NewWindowOf[F](d)
	for i := 0; i < slices; i++ {
		f := grid.NewField3DOf[F](d.Nx, d.Ny, d.Nz)
		for j := range f.Data {
			f.Data[j] = F(math.Sin(0.3*float64(j)+0.2*float64(i)) + 0.1*rng.NormFloat64())
		}
		if err := w.Append(f, float64(i)); err != nil {
			panic(err)
		}
	}
	return w
}

func checkMaxErrBound[F num.Float](t *testing.T, o Options, raw *grid.WindowOf[F]) {
	c, err := New(o)
	if err != nil {
		t.Fatalf("options %+v: %v", o, err)
	}
	cw, err := Compress(context.Background(), c, raw, Copy)
	if errors.Is(err, ErrBoundUnreachable) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	bg, in := maxErrSerialized(t, cw, raw, o.ROI)
	if bg > o.MaxErr {
		t.Fatalf("background error %g exceeds bound %g", bg, o.MaxErr)
	}
	if o.ROI != nil && in > o.ROI.MaxErr {
		t.Fatalf("ROI error %g exceeds bound %g", in, o.ROI.MaxErr)
	}
}
