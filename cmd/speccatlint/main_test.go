package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the linter entrypoint with stdout and stderr redirected
// to temp files and returns (exit code, stdout, stderr).
func capture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.CreateTemp(t.TempDir(), "err")
	if err != nil {
		t.Fatal(err)
	}
	code := run(args, outF, errF)
	out, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	serr, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), string(serr)
}

// lockbadDir is the lockcheck fixture seeded with one finding per rule
// class — a target guaranteed dirty for the lock layer.
func lockbadDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "lockcheck", "testdata", "src", "lockbad"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestListShowsAllLayers: -list names every analyzer family, including
// the sixth (lock) layer, and exits 0.
func TestListShowsAllLayers(t *testing.T) {
	code, out, serr := capture(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d (stderr: %s)", code, serr)
	}
	for _, want := range []string{"nopanic", "fsm-*", "dur-*", "rt-*", "comm-*", "lock-*"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

// TestExitCodeCleanPerLayer: every layer — selected alone via -only —
// exits 0 on a clean target, so scripts can attribute findings uniformly.
func TestExitCodeCleanPerLayer(t *testing.T) {
	for _, layer := range layerNames() {
		code, out, serr := capture(t, "-only", layer, "./internal/locking")
		if code != 0 {
			t.Errorf("-only %s on a clean target exited %d\nstdout: %s\nstderr: %s", layer, code, out, serr)
		}
	}
}

// TestExitCodeFindings: a dirty target exits 1 under -only lock, with the
// findings on stdout.
func TestExitCodeFindings(t *testing.T) {
	code, out, _ := capture(t, "-only", "lock", lockbadDir(t))
	if code != 1 {
		t.Fatalf("-only lock on the seeded fixture exited %d, want 1", code)
	}
	for _, rule := range []string{"lock-twophase", "lock-leak", "lock-hold", "lock-extract"} {
		if !strings.Contains(out, rule) {
			t.Errorf("findings output missing rule %s:\n%s", rule, out)
		}
	}
}

// TestExitCodeUsageError: an unknown -only layer is a usage error (2),
// distinct from findings (1).
func TestExitCodeUsageError(t *testing.T) {
	code, _, serr := capture(t, "-only", "bogus")
	if code != 2 {
		t.Fatalf("-only bogus exited %d, want 2", code)
	}
	if !strings.Contains(serr, "unknown layer") || !strings.Contains(serr, "(want base, fsm, dur, port, comm, lock)") {
		t.Errorf("usage error not reported on stderr with the six layers: %s", serr)
	}
}

// TestSpecFileIsNoTarget: a .sw target is a usage error (2) that points at
// speccat, the spec language's one checker, before any package is loaded.
func TestSpecFileIsNoTarget(t *testing.T) {
	code, out, serr := capture(t, "./internal/locking", filepath.Join("..", "..", "internal", "locking", "comm.sw"))
	if code != 2 || out != "" {
		t.Fatalf("a .sw target exited %d with stdout %q, want 2 and none", code, out)
	}
	if !strings.Contains(serr, "comm.sw") || !strings.Contains(serr, "speccat") {
		t.Errorf("stderr does not name the file and point at speccat: %s", serr)
	}
}

// TestJSONLayerTagging: -json emits the findings as one array, each
// finding tagged with its originating layer.
func TestJSONLayerTagging(t *testing.T) {
	code, out, serr := capture(t, "-only", "lock", "-json", lockbadDir(t))
	if code != 1 {
		t.Fatalf("-only lock -json on the seeded fixture exited %d, want 1 (stderr: %s)", code, serr)
	}
	var findings []finding
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("stdout is not a JSON findings array: %v\n%s", err, out)
	}
	if len(findings) == 0 {
		t.Fatal("no findings decoded from the seeded fixture")
	}
	for _, f := range findings {
		if f.Layer != "lock" {
			t.Errorf("finding %s/%s tagged layer %q, want lock", f.File, f.Rule, f.Layer)
		}
		if !strings.HasPrefix(f.Rule, "lock-") {
			t.Errorf("finding rule %q does not belong to the lock layer", f.Rule)
		}
	}
}
