// Command stserve serves compressed stwave containers over HTTP: time
// slices, subvolume crops, multiresolution previews, and rendered
// quick-look images, with a byte-budgeted cache of decompressed windows on
// the hot path.
//
// Mount one or more containers, each as NAME=PATH (or bare PATH, named
// after the file):
//
//	stserve -listen :8080 -cache-mb 256 tornado=data/tornado.stw ghost.stw
//
// Then:
//
//	curl 'http://localhost:8080/v1/tornado/slice?t=12' -o slice.f32
//	curl 'http://localhost:8080/v1/tornado/render?t=12&kind=mip&format=ppm' -o mip.ppm
//	curl 'http://localhost:8080/metrics'
//
// Observability (see OPERATIONS.md): /debug/vars always serves the merged
// server + pipeline metric registries; -trace-requests records a span
// tree per request, readable at /debug/traces; -pprof exposes the
// standard profiling endpoints under /debug/pprof/:
//
//	curl 'http://localhost:8080/debug/vars'
//	curl 'http://localhost:8080/debug/traces'
//	go tool pprof 'http://localhost:8080/debug/pprof/profile?seconds=10'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"stwave/internal/server"
)

// errUsage marks a command-line error: main exits 2, as flag does.
var errUsage = errors.New("usage")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "stserve: %v\n", err)
		os.Exit(1)
	}
}

// run mounts the containers named in args, serves them until ctx is
// cancelled, then drains in-flight requests and returns. Log lines,
// including the bound address (so -listen 127.0.0.1:0 is usable), go to
// logw.
func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("stserve", flag.ContinueOnError)
	fs.SetOutput(logw)
	listen := fs.String("listen", ":8080", "address to listen on")
	cacheMB := fs.Int64("cache-mb", 256, "decompressed-window cache budget in MB (0 disables caching)")
	maxDecompress := fs.Int("max-decompress", 0, "max concurrent window decompressions (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout (0 disables)")
	degraded := fs.Bool("degraded", false, "serve containers with corrupt windows: checksum-verify at mount, answer 410 for lost windows, report damage via /healthz and /metrics")
	traceReq := fs.Bool("trace-requests", false, "record a span tree per request, served at /debug/traces (a small ring of recent requests)")
	pprof := fs.Bool("pprof", false, "expose the net/http/pprof profiling endpoints under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(logw, "stserve: at least one container is required (NAME=PATH or PATH)")
		fs.Usage()
		return errUsage
	}
	logger := log.New(logw, "", log.LstdFlags)

	srv := server.New(server.Config{
		CacheBytes:     *cacheMB << 20,
		MaxDecompress:  *maxDecompress,
		RequestTimeout: *timeout,
		Degraded:       *degraded,
		TraceRequests:  *traceReq,
		Pprof:          *pprof,
	})
	defer srv.Close()
	for _, arg := range fs.Args() {
		name, path, ok := strings.Cut(arg, "=")
		if !ok {
			path = arg
			name = strings.TrimSuffix(filepath.Base(arg), filepath.Ext(arg))
		}
		if err := srv.Mount(name, path); err != nil {
			return fmt.Errorf("mounting %s: %w", arg, err)
		}
		logger.Printf("mounted %q from %s", name, path)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Printf("serving on %s (cache %d MB, timeout %v)", ln.Addr(), *cacheMB, *timeout)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight requests finish.
	logger.Printf("shutting down")
	shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("stserve: shutdown: %v", err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	return nil
}
