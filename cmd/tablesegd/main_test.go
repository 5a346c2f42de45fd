package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"tableseg"
	"tableseg/internal/server"
)

func TestBadFlagRejected(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-no-such-flag"}, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-workers", "-3"}, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestStalledBodyIsBounded declares a 1000-byte body, sends 16 bytes
// of it and stalls. The read timeout must end the request with 400:
// the 16 bytes are a complete JSON value, but a body whose read failed
// is not decoded. Drain must then return while the client still holds
// the connection open.
func TestStalledBodyIsBounded(t *testing.T) {
	srv, err := server.New(server.Config{
		Engine: tableseg.EngineConfig{Options: tableseg.DefaultOptions(tableseg.Probabilistic)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const read = 200 * time.Millisecond
	httpSrv := newHTTPServer(ln.Addr().String(), srv.Handler(), read, read)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	defer func() {
		httpSrv.Close()
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"method":"csp"}`
	fmt.Fprintf(conn, "POST /v1/segment HTTP/1.1\r\nHost: tablesegd\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n%s", body)

	// Past the bound the handler would wait as long as the client does.
	const bound = read + 2*time.Second
	conn.SetReadDeadline(time.Now().Add(bound))
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("no response and no close within %v", bound)
	}
	if !strings.HasPrefix(string(buf[:n]), "HTTP/1.1 400 ") {
		t.Errorf("reply starts %q (read error %v), want a 400 response", buf[:n], err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), bound)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
