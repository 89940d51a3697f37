// Command stview renders quick-look images from raw volumes or stwave
// containers: grayscale/false-color slices, maximum-intensity projections,
// and terminal ASCII previews.
//
//	stview -in vol.raw -dims 64x64x64 -z 32 -out slice.pgm
//	stview -in data.stw -window 0 -slice 4 -mip z -out mip.ppm -color
//	stview -in vol.raw -dims 64x64x64 -ascii 72
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/render"
	"stwave/internal/storage"
)

func main() {
	in := flag.String("in", "", "input: .raw volume or .stw container (required)")
	dimsStr := flag.String("dims", "", "dims NXxNYxNZ (required for raw input)")
	windowIdx := flag.Int("window", 0, "window index (container input)")
	sliceIdx := flag.Int("slice", 0, "time slice within the window (container input)")
	z := flag.Int("z", -1, "z plane to slice (-1 = middle)")
	mip := flag.String("mip", "", "render a maximum-intensity projection along x, y, or z instead of a slice")
	out := flag.String("out", "", "output image (.pgm grayscale or .ppm color); empty with -ascii for terminal output")
	color := flag.Bool("color", false, "write false-color PPM instead of grayscale PGM")
	ascii := flag.Int("ascii", 0, "print an ASCII preview of this width to stdout")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "stview: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	field, err := loadField(*in, *dimsStr, *windowIdx, *sliceIdx)
	if err != nil {
		fatal(err)
	}

	var im *render.Image
	if *mip != "" {
		axis, err := parseAxis(*mip)
		if err != nil {
			fatal(err)
		}
		im, err = render.MIP(field, axis)
		if err != nil {
			fatal(err)
		}
	} else {
		k := *z
		if k < 0 {
			k = field.Dims.Nz / 2
		}
		im, err = render.SliceXY(field, k)
		if err != nil {
			fatal(err)
		}
	}

	if *ascii > 0 {
		fmt.Print(im.ASCII(*ascii))
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if *color || strings.HasSuffix(*out, ".ppm") {
			err = im.WritePPM(f)
		} else {
			err = im.WritePGM(f)
		}
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%dx%d)\n", *out, im.W, im.H)
	}
	if *ascii == 0 && *out == "" {
		fatal(fmt.Errorf("nothing to do: pass -out and/or -ascii"))
	}
}

func loadField(path, dimsStr string, windowIdx, sliceIdx int) (*grid.Field3D, error) {
	if strings.HasSuffix(path, ".stw") {
		r, err := storage.OpenContainer(path)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		cw, err := r.ReadWindow(windowIdx)
		if err != nil {
			return nil, err
		}
		if sliceIdx < 0 {
			return nil, fmt.Errorf("slice %d out of range", sliceIdx)
		}
		w, err := core.Reconstruct[float64](context.Background(), cw, core.Query{MaxLevel: core.All, Slice: sliceIdx})
		if err != nil {
			return nil, err
		}
		return w.Slices[0], nil
	}
	if dimsStr == "" {
		return nil, fmt.Errorf("raw input requires -dims")
	}
	parts := strings.Split(strings.ToLower(dimsStr), "x")
	if len(parts) != 3 {
		return nil, fmt.Errorf("dims must be NXxNYxNZ, got %q", dimsStr)
	}
	var d [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad dimension %q", p)
		}
		d[i] = v
	}
	return grid.LoadRawFile(path, d[0], d[1], d[2])
}

func parseAxis(s string) (render.MIPAxis, error) {
	switch strings.ToLower(s) {
	case "x":
		return render.AlongX, nil
	case "y":
		return render.AlongY, nil
	case "z":
		return render.AlongZ, nil
	}
	return 0, fmt.Errorf("mip axis must be x, y, or z, got %q", s)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "stview: %v\n", err)
	os.Exit(1)
}
