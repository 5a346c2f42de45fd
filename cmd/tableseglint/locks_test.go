package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyFixtureModule clones the lint fixture module into a temp dir so
// lock-workflow tests can delete, corrupt or regenerate the committed
// locks without touching the shared testdata tree.
func copyFixtureModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	if err := filepath.WalkDir(fixtureRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(fixtureRoot, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(root, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	return root
}

// TestUpdateLocksBootstrapAndIdempotent: with no locks on disk,
// -update-locks bootstraps both from the live tree; a second run is a
// byte-identical no-op; and the regenerated locks describe the tree
// they were cut from, so the wire package lints clean against them.
func TestUpdateLocksBootstrapAndIdempotent(t *testing.T) {
	root := copyFixtureModule(t)
	for _, lock := range []string{"schema-apiv1.lock", "schema-artifacts.lock"} {
		if err := os.Remove(filepath.Join(root, "lint", lock)); err != nil {
			t.Fatal(err)
		}
	}

	code, stdout, stderr := runCLI(t, "-root", root, "-update-locks")
	if code != 0 {
		t.Fatalf("bootstrap: exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if strings.Count(stdout, "wrote") != 2 {
		t.Fatalf("bootstrap did not report writing both locks:\n%s", stdout)
	}
	first := map[string][]byte{}
	for _, lock := range []string{"schema-apiv1.lock", "schema-artifacts.lock"} {
		data, err := os.ReadFile(filepath.Join(root, "lint", lock))
		if err != nil {
			t.Fatalf("bootstrap left no %s: %v", lock, err)
		}
		first[lock] = data
	}

	code, stdout, stderr = runCLI(t, "-root", root, "-update-locks")
	if code != 0 {
		t.Fatalf("second run: exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if strings.Count(stdout, "unchanged") != 2 || strings.Contains(stdout, "wrote") {
		t.Fatalf("second run was not a no-op:\n%s", stdout)
	}
	for lock, before := range first {
		after, err := os.ReadFile(filepath.Join(root, "lint", lock))
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != string(before) {
			t.Errorf("%s changed on the no-op run", lock)
		}
	}

	// The fixture's planted wiredrift findings exist only relative to
	// the shipped (deliberately drifted) locks; against locks cut from
	// the live tree the wire package is clean.
	code, stdout, stderr = runCLI(t, "-root", root, "api/v1")
	if code != 0 {
		t.Errorf("api/v1 against regenerated locks: exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// TestUpdateLocksRefusesBreakingRewrite: the shipped fixture locks
// disagree breakingly with the live tree (that is what the golden
// fixtures test), so regenerating them must be refused with each break
// named — -update-locks is for additions and bumped versions, not for
// laundering breaks.
func TestUpdateLocksRefusesBreakingRewrite(t *testing.T) {
	code, _, stderr := runCLI(t, "-root", fixtureRoot, "-update-locks")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "refusing to update locks") {
		t.Errorf("stderr missing refusal banner:\n%s", stderr)
	}
	for _, want := range []string{
		"field lintfixture/api/v1.Removed.Gone",
		"json tag of lintfixture/api/v1.Retagged.Name",
		"type of lintfixture/api/v1.Retyped.Count",
		"underlying type of lintfixture/api/v1.Level",
		"wire type lintfixture/api/v1.Vanished would be dropped",
		"shape of codec-encoded lintfixture/internal/stage.Record changed without bumping",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("refusal does not name the break %q:\n%s", want, stderr)
		}
	}
	// A refused run must not have touched the locks.
	data, err := os.ReadFile(filepath.Join(fixtureRoot, "lint", "schema-apiv1.lock"))
	if err != nil || !strings.Contains(string(data), "lintfixture/api/v1.Vanished") {
		t.Errorf("refused run rewrote the wire lock (err=%v)", err)
	}
}

// TestCorruptLockIsUsageError: a truncated lock is an exit-2 usage
// error — never a panic, never a silent skip — for both a normal lint
// run and -update-locks.
func TestCorruptLockIsUsageError(t *testing.T) {
	root := copyFixtureModule(t)
	lockPath := filepath.Join(root, "lint", "schema-apiv1.lock")
	if err := os.WriteFile(lockPath, []byte(`{"schema": "tableseg-sch`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-root", root, "api/v1")
	if code != 2 {
		t.Errorf("lint with corrupt lock: exit = %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "schema-apiv1.lock") {
		t.Errorf("error does not name the corrupt file:\n%s", stderr)
	}
	code, _, stderr = runCLI(t, "-root", root, "-update-locks")
	if code != 2 {
		t.Errorf("-update-locks with corrupt lock: exit = %d, want 2 (stderr: %s)", code, stderr)
	}
}

// TestCodecDriftClearedByVersionBump is the acceptance scenario end to
// end: the fixture stage package drifts against the artifact lock and
// codecdrift fires; bumping the bound version constant — with no lock
// edit — clears it.
func TestCodecDriftClearedByVersionBump(t *testing.T) {
	root := copyFixtureModule(t)
	code, stdout, _ := runCLI(t, "-root", root, "internal/stage")
	if code != 1 || !strings.Contains(stdout, "[codecdrift]") {
		t.Fatalf("drifted stage fixture: exit = %d, stdout:\n%s", code, stdout)
	}

	target := filepath.Join(root, "internal", "stage", "fixture.go")
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	bumped := strings.Replace(string(data), "const CodecVersion = 1", "const CodecVersion = 2", 1)
	if bumped == string(data) {
		t.Fatal("fixture does not declare const CodecVersion = 1")
	}
	if err := os.WriteFile(target, []byte(bumped), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stdout, _ = runCLI(t, "-root", root, "internal/stage")
	if strings.Contains(stdout, "[codecdrift]") {
		t.Errorf("codecdrift still fires after the version bump:\n%s", stdout)
	}
}

// TestUpdateLocksExcludesOtherModes: -update-locks is its own mode.
func TestUpdateLocksExcludesOtherModes(t *testing.T) {
	for _, args := range [][]string{
		{"-update-locks", "-json"},
		{"-update-locks", "-sarif"},
		{"-update-locks", "-analyzers", "wiredrift"},
		{"-update-locks", "api/v1"},
	} {
		if code, _, _ := runCLI(t, append([]string{"-root", fixtureRoot}, args...)...); code != 2 {
			t.Errorf("args %v: exit = %d, want 2", args, code)
		}
	}
}
