// Command tablesegd serves table segmentation over HTTP/JSON:
//
//	tablesegd -addr :8844 -workers 4
//
// It exposes the api/v1 wire surface (POST /v1/segment) on top of the
// concurrent engine, one engine run per request (identical concurrent
// requests share only the engine's tokenization and template
// induction), bounded admission (429 + Retry-After beyond the queue),
// optional per-client rate limiting,
// /healthz and /varz, and graceful drain on SIGTERM/SIGINT: in-flight
// segmentations complete, queued-but-unadmitted requests get 503, and
// the process exits once the last response is written (or the drain
// timeout expires). -cache-dir persists the artifact cache (tokenized
// pages, induced templates) across restarts; every request still runs
// the pipeline. Per-tier cache counters are exported on /varz.
//
// Reading a request is bounded: its header must arrive within 10 s and
// the whole request within 90 s, enough for the largest body the
// server accepts (64 MiB) sent at about 1 MB/s. A client that declares
// a body and stalls gets 400 bad_request, carrying the read error, at
// that bound instead of holding a handler, its body buffer and the
// drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tableseg"
	"tableseg/internal/server"
)

// Request-read bounds. readTimeout covers header and body: a 64 MiB
// body (the server's cap) sent at about 1 MB/s takes 67 s.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 90 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// newHTTPServer serves h on addr, bounding the read of each request's
// header by readHeader and of the whole request by read.
func newHTTPServer(addr string, h http.Handler, readHeader, read time.Duration) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeader, ReadTimeout: read}
}

// run is main with its dependencies injected. It returns the process
// exit code: 0 clean shutdown, 1 serve or drain failure, 2 usage
// error.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("tablesegd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8844", "listen address")
	workers := fs.Int("workers", 0, "concurrent segmentations admitted (0 = GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 0, "requests waiting for admission before 429 (0 = 4x workers)")
	rate := fs.Float64("rate", 0, "per-client requests/sec (0 = unlimited)")
	burst := fs.Int("burst", 0, "per-client burst size (0 = one second of -rate)")
	defaultTimeout := fs.Duration("default-timeout", 0, "segmentation deadline for requests that carry none (0 = none)")
	maxTimeout := fs.Duration("max-timeout", 0, "clamp applied to request-supplied deadlines (0 = no clamp)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	cacheDir := fs.String("cache-dir", "", "persistent artifact-cache directory (adds a disk tier behind the in-memory cache)")
	cacheMem := fs.Int64("cache-mem", 0, "in-memory artifact-cache budget in bytes (0 = default)")
	cacheDisk := fs.Int64("cache-disk", 0, "disk artifact-cache budget in bytes (0 = default; needs -cache-dir)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Every request carries its own options (an empty method means
	// probabilistic), so the engine's defaults decide no request.
	srv, err := server.New(server.Config{
		Engine: tableseg.EngineConfig{
			Options:          tableseg.DefaultOptions(tableseg.Probabilistic),
			Concurrency:      *workers,
			CacheDir:         *cacheDir,
			CacheMemoryBytes: *cacheMem,
			CacheDiskBytes:   *cacheDisk,
		},
		MaxQueue:       *maxQueue,
		RatePerSec:     *rate,
		Burst:          *burst,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
	})
	if err != nil {
		fmt.Fprintln(stderr, "tablesegd:", err)
		return 2
	}

	httpSrv := newHTTPServer(*addr, srv.Handler(), readHeaderTimeout, readTimeout)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	serveErr := make(chan error, 1)
	go func() {
		fmt.Fprintf(stderr, "tablesegd: listening on %s\n", *addr)
		serveErr <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "tablesegd:", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(stderr, "tablesegd: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	// Drain first: /healthz flips to 503 and queued requests are
	// released while their connections are still being served; only
	// then is the listener shut down.
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(stderr, "tablesegd: drain:", err)
		code = 1
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "tablesegd: shutdown:", err)
		code = 1
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "tablesegd:", err)
		code = 1
	}
	fmt.Fprintln(stderr, "tablesegd: drained")
	return code
}
