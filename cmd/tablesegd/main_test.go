package main

import (
	"strings"
	"testing"
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
