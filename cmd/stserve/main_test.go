package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/storage"
)

// syncBuffer is a log sink the test can read while run writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// writeContainer compresses a smooth 36x36x24 field of 20 slices into a
// progressive container through the streaming writer, as stcomp compress
// does, then journals a 10-slice gap as a shedding ingest would.
func writeContainer(t *testing.T) string {
	t.Helper()
	d := grid.Dims{Nx: 36, Ny: 36, Nz: 24}
	opts := core.DefaultOptions()
	opts.WindowSize = 10
	opts.Progressive = true
	path := filepath.Join(t.TempDir(), "tornado.stw")
	cont, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := core.NewWriterOf[float64](opts, d, func(cw *core.CompressedWindow) error {
		_, err := cont.Append(cw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for ts := 0; ts < 20; ts++ {
		f := grid.NewField3D(d.Nx, d.Ny, d.Nz)
		for i := range f.Data {
			f.Data[i] = math.Sin(float64(i)*0.01 + float64(ts)*0.2)
		}
		if err := writer.WriteSlice(f, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := cont.AppendGap(core.GapMarker{Slices: 10, T0: 20, T1: 29, Reason: core.GapShed}); err != nil {
		t.Fatal(err)
	}
	if err := cont.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

var servingOn = regexp.MustCompile(`serving on (\S+)`)

// TestServeRecipe drives the server end to end the way an operator's
// curl session would: health, datasets, a slice miss then hit, a rendered
// image, metrics, a coarse slice, a shed span, then a graceful shutdown
// that leaves no goroutine behind.
func TestServeRecipe(t *testing.T) {
	path := writeContainer(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logs := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-cache-mb", "64", "tornado=" + path}, logs)
	}()

	var base string
	for deadline := time.Now().Add(10 * time.Second); base == ""; time.Sleep(5 * time.Millisecond) {
		if m := servingOn.FindStringSubmatch(logs.String()); m != nil {
			base = "http://" + m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server never logged its address:\n%s", logs)
		}
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	fetch := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, body := fetch(path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return resp, body
	}

	if _, body := get("/healthz"); !strings.Contains(string(body), `"ok"`) {
		t.Errorf("/healthz = %s", body)
	}
	if _, body := get("/v1/datasets"); !strings.Contains(string(body), "tornado") {
		t.Errorf("/v1/datasets = %s", body)
	}
	for _, want := range []string{"miss", "hit"} {
		resp, body := get("/v1/tornado/slice?t=12")
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Errorf("slice X-Cache = %q, want %q", got, want)
		}
		if len(body) != 36*36*24*4 {
			t.Errorf("slice body %d bytes, want %d", len(body), 36*36*24*4)
		}
	}
	if _, body := get("/v1/tornado/render?t=12&kind=mip&format=ppm"); !regexp.MustCompile(`^P6\n\d+ \d+\n255\n`).Match(body) {
		t.Errorf("render is not a PPM: %q", body[:min(len(body), 16)])
	}
	var metrics map[string]any
	if _, body := get("/metrics"); json.Unmarshal(body, &metrics) != nil {
		t.Errorf("/metrics is not JSON: %s", body)
	}
	resp, body := get("/v1/tornado/slice?t=12&levels=0")
	if dims := resp.Header.Get("X-STW-Dims"); dims == "" || dims == "36x36x24" {
		t.Errorf("levels=0 slice dims %q, want coarser than 36x36x24", dims)
	}
	var nx, ny, nz int
	if _, err := fmt.Sscanf(resp.Header.Get("X-STW-Dims"), "%dx%dx%d", &nx, &ny, &nz); err != nil || len(body) != nx*ny*nz*4 {
		t.Errorf("levels=0 slice body %d bytes for dims %s", len(body), resp.Header.Get("X-STW-Dims"))
	}
	if resp, body := fetch("/v1/tornado/slice?t=25"); resp.StatusCode != http.StatusGone {
		t.Errorf("slice in a shed span: status %d (%s), want 410", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run = %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if !strings.Contains(logs.String(), "shutting down") {
		t.Errorf("log lacks %q:\n%s", "shutting down", logs)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d at start, %d after shutdown", baseline, runtime.NumGoroutine())
		}
	}
}

func TestRunRejectsBadMounts(t *testing.T) {
	logs := &syncBuffer{}
	if err := run(context.Background(), nil, logs); err == nil {
		t.Error("run with no containers succeeded")
	}
	missing := filepath.Join(t.TempDir(), "missing.stw")
	if err := run(context.Background(), []string{"-listen", "127.0.0.1:0", missing}, logs); err == nil || !strings.Contains(err.Error(), "mounting") {
		t.Errorf("run with a missing container = %v, want a mount error", err)
	}
}
