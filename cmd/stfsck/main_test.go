package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/storage"
)

// buildContainer writes a small v3 container and returns its path.
func buildContainer(t *testing.T, numWindows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fsck.stw")
	d := grid.Dims{Nx: 8, Ny: 8, Nz: 8}
	opts := core.DefaultOptions()
	opts.WindowSize = 3
	opts.Ratio = 8
	comp, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	for wi := 0; wi < numWindows; wi++ {
		win := grid.NewWindow(d)
		for ts := 0; ts < 3; ts++ {
			f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
			for i := range f.Data {
				f.Data[i] = float64(wi) + float64(i%11)*0.5
			}
			if err := win.Append(f, float64(wi*3+ts)); err != nil {
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
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// truncate chops the file at path down to size bytes.
func truncate(t *testing.T, path string, size int64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:size], 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCleanContainer(t *testing.T) {
	path := buildContainer(t, 2)
	var out bytes.Buffer
	dirty, err := runVerify([]string{"-in", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if dirty {
		t.Errorf("clean container reported dirty:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "clean") || !strings.Contains(out.String(), "2 ok") {
		t.Errorf("verify output:\n%s", out.String())
	}
}

func TestVerifyRepairTruncated(t *testing.T) {
	path := buildContainer(t, 3)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	truncate(t, path, st.Size()-40) // rip off the footer and part of the index

	var out bytes.Buffer
	dirty, err := runVerify([]string{"-in", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !dirty {
		t.Errorf("truncated container reported clean:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "repair") {
		t.Errorf("verify did not point at repair:\n%s", out.String())
	}

	out.Reset()
	if err := runRepair([]string{"-in", path}, &out); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !strings.Contains(out.String(), "rebuilt index over 3 windows") {
		t.Errorf("repair output:\n%s", out.String())
	}

	// Verify is clean afterwards and the container opens.
	out.Reset()
	dirty, err = runVerify([]string{"-in", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if dirty {
		t.Errorf("repaired container still dirty:\n%s", out.String())
	}
	r, err := storage.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumWindows() != 3 {
		t.Errorf("NumWindows = %d after repair", r.NumWindows())
	}

	// Repair again: nothing to do.
	out.Reset()
	if err := runRepair([]string{"-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "nothing to repair") {
		t.Errorf("second repair output:\n%s", out.String())
	}
}

func TestVerifyCorruptWindow(t *testing.T) {
	path := buildContainer(t, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x01 // somewhere inside a payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	dirty, err := runVerify([]string{"-in", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !dirty {
		t.Errorf("corrupt container reported clean:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "corrupt") {
		t.Errorf("verify output does not name the corrupt window:\n%s", out.String())
	}
}

func TestReportJSON(t *testing.T) {
	path := buildContainer(t, 2)
	var out bytes.Buffer
	if err := runReport([]string{"-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	var rep storage.ScanReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Good != 2 || !rep.FooterOK || len(rep.Frames) != 2 {
		t.Errorf("report = %+v", rep)
	}
	for _, fr := range rep.Frames {
		if fr.StateS != "ok" {
			t.Errorf("frame %d state %q", fr.Index, fr.StateS)
		}
	}
}

func TestMissingArgs(t *testing.T) {
	if _, err := runVerify(nil, &bytes.Buffer{}); err == nil {
		t.Error("verify without -in must fail")
	}
	if err := runRepair(nil, &bytes.Buffer{}); err == nil {
		t.Error("repair without -in must fail")
	}
	if err := runReport([]string{"-in", filepath.Join(t.TempDir(), "missing.stw")}, &bytes.Buffer{}); err == nil {
		t.Error("report on missing file must fail")
	}
}
