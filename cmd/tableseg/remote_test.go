package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"tableseg/internal/server"
)

// startDaemon serves a real internal/server instance for -remote tests.
func startDaemon(t *testing.T) string {
	t.Helper()
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRemoteJSONMatchesLocal is the -remote contract: for every method
// the daemon path emits byte-identical -json output to the in-process
// path.
func TestRemoteJSONMatchesLocal(t *testing.T) {
	checkRemoteMatchesLocal(t, "-json")
}

// TestRemoteCSVAndTextMatchLocal extends the contract to the CSV and
// human-readable renderings. With the JSON test it covers every method
// and output mode, which guards the CLI's single renderer.
func TestRemoteCSVAndTextMatchLocal(t *testing.T) {
	checkRemoteMatchesLocal(t, "-csv", "-columns", "")
}

// checkRemoteMatchesLocal runs each method in each output mode ("" is
// plain text) locally and against a daemon and compares stdout.
func checkRemoteMatchesLocal(t *testing.T, modes ...string) {
	t.Helper()
	url := startDaemon(t)
	for _, method := range []string{"prob", "csp", "combined"} {
		for _, mode := range modes {
			args := append(writeTestSite(t), "-method", method)
			if mode != "" {
				args = append(args, mode)
			}
			codeL, localOut, stderrL := runCLI(t, args...)
			if codeL != 0 {
				t.Fatalf("local %s %s: exit %d: %s", method, mode, codeL, stderrL)
			}
			codeR, remoteOut, stderrR := runCLI(t, append(args, "-remote", url)...)
			if codeR != 0 {
				t.Fatalf("remote %s %s: exit %d: %s", method, mode, codeR, stderrR)
			}
			if localOut != remoteOut {
				t.Errorf("%s %q: remote output differs from local:\nlocal:  %q\nremote: %q", method, mode, localOut, remoteOut)
			}
		}
	}
}

// TestRemoteServerError maps a daemon-side typed failure onto the CLI's
// failure exit code and message.
func TestRemoteServerError(t *testing.T) {
	url := startDaemon(t)
	args := append(writeTestSite(t), "-target", "9", "-remote", url)
	code, _, stderr := runCLI(t, args...)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, "bad_target") {
		t.Errorf("stderr does not surface the wire code: %q", stderr)
	}
}

// TestRemoteConnectionRefused: an unreachable daemon is a clean
// failure, not a hang or a panic.
func TestRemoteConnectionRefused(t *testing.T) {
	args := append(writeTestSite(t), "-remote", "http://127.0.0.1:1")
	code, _, stderr := runCLI(t, args...)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, "tableseg:") {
		t.Errorf("no diagnostic on stderr: %q", stderr)
	}
}
