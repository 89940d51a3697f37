// Serving quickstart: generate a small tornado dataset, compress it into a
// container (the simgen + stcomp pipeline, in-process), mount it with the
// stserve engine, and fetch slices and previews over real HTTP — printing
// cold-cache vs hot-cache latencies so the window cache's effect is
// visible.
//
//	go run ./examples/serve
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"stwave/internal/core"
	"stwave/internal/server"
	"stwave/internal/sim/tornado"
	"stwave/internal/storage"
)

func main() {
	// 1. Generate and compress a tornado cloud-mixing-ratio series:
	// 24x24x16 cells, 12 slices, windows of 6, 16:1 — what
	// `simgen -sim tornado | stcomp compress` would produce.
	dir, err := os.MkdirTemp("", "stserve-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "tornado.stw")

	model, err := tornado.NewModel(tornado.DefaultConfig(24, 24, 16))
	if err != nil {
		log.Fatal(err)
	}
	cont, err := storage.CreateContainer(path)
	if err != nil {
		log.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.WindowSize = 6
	opts.Ratio = 16
	first := model.CloudMixingRatio(8502)
	writer, err := core.NewWriterOf[float64](opts, first.Dims, func(w *core.CompressedWindow) error {
		_, err := cont.Append(w)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		t := 8502 + float64(i)
		if err := writer.WriteSlice(model.CloudMixingRatio(t), t); err != nil {
			log.Fatal(err)
		}
	}
	if err := writer.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := cont.Close(); err != nil {
		log.Fatal(err)
	}
	st := writer.Stats()
	fmt.Printf("compressed %d slices of %v into %d windows (%d bytes)\n",
		st.SlicesIn, first.Dims, st.WindowsOut, st.BytesEncoded)

	// 2. Mount it and serve over HTTP on a random local port.
	srv := server.New(server.DefaultConfig())
	if err := srv.Mount("tornado", path); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	// 3. Fetch the same slice twice: the first request decompresses a whole
	// window (cold), the second is served from the window cache (hot).
	cold := fetch(base + "/v1/tornado/slice?t=7")
	hot := fetch(base + "/v1/tornado/slice?t=7")
	fmt.Printf("slice t=7   cold: %8s  (X-Cache: %s)\n", cold.took, cold.cache)
	fmt.Printf("slice t=7   hot:  %8s  (X-Cache: %s)  %.0fx faster\n",
		hot.took, hot.cache, float64(cold.took)/float64(hot.took))

	// Another slice of the same window is also a hit: the cache holds
	// windows, not slices.
	same := fetch(base + "/v1/tornado/slice?t=9")
	fmt.Printf("slice t=9   warm: %8s  (X-Cache: %s, same window)\n", same.took, same.cache)

	// 4. A multiresolution preview (1/8 the samples) and a rendered
	// quick-look, both from the cached window.
	prev := fetch(base + "/v1/tornado/preview?t=7&levels=1")
	fmt.Printf("preview L1: %8s  (%d bytes, dims %s)\n", prev.took, prev.bytes, prev.dims)
	img := fetch(base + "/v1/tornado/render?t=7&kind=mip&format=ppm")
	fmt.Printf("MIP render: %8s  (%d bytes of PPM)\n\n", img.took, img.bytes)

	// 5. The engine's own accounting.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var snap server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metrics: %d requests, %d decompressions, %d cache hits, %d bytes served\n",
		snap.Requests, snap.Decompressions, snap.CacheHits, snap.BytesServed)
	fmt.Printf("cache:   %d window(s), %d bytes of %d budget\n",
		snap.Cache.Windows, snap.Cache.UsedBytes, snap.Cache.BudgetBytes)
}

type result struct {
	took  time.Duration
	cache string
	dims  string
	bytes int
}

func fetch(url string) result {
	start := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close() //stlint:ignore uncheckederr demo client; ReadAll already surfaced any transfer error
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: %d: %s", url, resp.StatusCode, body)
	}
	return result{
		took:  time.Since(start),
		cache: resp.Header.Get("X-Cache"),
		dims:  resp.Header.Get("X-STW-Dims"),
		bytes: len(body),
	}
}
