package render

import (
	"bytes"
	"strings"
	"testing"

	"stwave/internal/grid"
)

func gradientField(nx, ny, nz int) *grid.Field3D {
	f := grid.NewField3D(nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				f.Set(x, y, z, float64(x+y+z))
			}
		}
	}
	return f
}

func TestImageSetClamps(t *testing.T) {
	im := NewImage(2, 2)
	im.Set(0, 0, -3)
	im.Set(1, 1, 7)
	if im.At(0, 0) != 0 || im.At(1, 1) != 1 {
		t.Errorf("clamping failed: %g, %g", im.At(0, 0), im.At(1, 1))
	}
}

func TestSliceXY(t *testing.T) {
	f := gradientField(4, 3, 2)
	im, err := SliceXY(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 4 || im.H != 3 {
		t.Fatalf("image %dx%d", im.W, im.H)
	}
	// Values must increase along x (gradient) after normalization.
	if !(im.At(0, 0) < im.At(3, 0)) {
		t.Error("gradient not preserved")
	}
	if _, err := SliceXY(f, 5); err == nil {
		t.Error("expected error for out-of-range z")
	}
}

func TestMIPAxes(t *testing.T) {
	f := grid.NewField3D(4, 5, 6)
	f.Set(2, 3, 4, 10) // single bright voxel
	cases := []struct {
		axis MIPAxis
		w, h int
		x, y int
	}{
		{AlongZ, 4, 5, 2, 3},
		{AlongY, 4, 6, 2, 4},
		{AlongX, 5, 6, 3, 4},
	}
	for _, c := range cases {
		im, err := MIP(f, c.axis)
		if err != nil {
			t.Fatal(err)
		}
		if im.W != c.w || im.H != c.h {
			t.Fatalf("axis %d: image %dx%d, want %dx%d", c.axis, im.W, im.H, c.w, c.h)
		}
		if im.At(c.x, c.y) != 1 {
			t.Errorf("axis %d: bright voxel not projected to (%d,%d)", c.axis, c.x, c.y)
		}
	}
	if _, err := MIP(f, MIPAxis(9)); err == nil {
		t.Error("expected error for unknown axis")
	}
}

func TestWritePGM(t *testing.T) {
	f := gradientField(8, 4, 2)
	im, err := SliceXY(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := im.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P5\n8 4\n255\n")) {
		t.Errorf("bad PGM header: %q", out[:12])
	}
	if len(out) != len("P5\n8 4\n255\n")+8*4 {
		t.Errorf("PGM size %d", len(out))
	}
}

func TestWritePPM(t *testing.T) {
	im := NewImage(2, 1)
	im.Set(0, 0, 0)
	im.Set(1, 0, 1)
	var buf bytes.Buffer
	if err := im.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P6\n2 1\n255\n")) {
		t.Errorf("bad PPM header")
	}
	pix := out[len("P6\n2 1\n255\n"):]
	if len(pix) != 6 {
		t.Fatalf("PPM payload %d bytes", len(pix))
	}
	// t=0 is blue-ish (b >> r), t=1 red-ish (r >> b).
	if !(pix[2] > pix[0]) {
		t.Errorf("low end not blue: rgb=%v", pix[0:3])
	}
	if !(pix[3] > pix[5]) {
		t.Errorf("high end not red: rgb=%v", pix[3:6])
	}
}

func TestASCII(t *testing.T) {
	f := gradientField(16, 16, 1)
	im, err := SliceXY(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	art := im.ASCII(16)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) < 1 || len(lines[0]) != 16 {
		t.Fatalf("ascii shape: %d lines of %d", len(lines), len(lines[0]))
	}
	// Dark characters top-left, bright bottom-right.
	first := lines[0][0]
	last := lines[len(lines)-1][len(lines[0])-1]
	if first == last {
		t.Error("ascii gradient flat")
	}
	if im.ASCII(0) != "" {
		t.Error("zero width should render empty")
	}
}

func TestSubVolumeAndWindow(t *testing.T) {
	f := gradientField(6, 5, 4)
	sub, err := f.SubVolume(1, 2, 1, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Dims != (grid.Dims{Nx: 3, Ny: 2, Nz: 2}) {
		t.Fatalf("sub dims %v", sub.Dims)
	}
	for z := 0; z < 2; z++ {
		for y := 0; y < 2; y++ {
			for x := 0; x < 3; x++ {
				if sub.At(x, y, z) != f.At(x+1, y+2, z+1) {
					t.Fatalf("subvolume sample (%d,%d,%d) wrong", x, y, z)
				}
			}
		}
	}
	if _, err := f.SubVolume(4, 0, 0, 3, 1, 1); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := f.SubVolume(0, 0, 0, 0, 1, 1); err == nil {
		t.Error("expected error for zero extent")
	}
}
