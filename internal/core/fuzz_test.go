package core

import (
	"bytes"
	"context"
	"testing"

	"stwave/internal/grid"
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
	// Seed with a real serialized window.
	w := coherentWindow(grid.Dims{Nx: 6, Ny: 5, Nz: 4}, 6, 0.2)
	opts := DefaultOptions()
	opts.WindowSize = 6
	opts.Ratio = 4
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
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cw, err := ReadCompressedWindow(bytes.NewReader(data))
		if err != nil {
			return
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
