package analysis_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"speccat/internal/analysis"
)

// TestLoadSkipsNestedModules pins the /... expansion against the go tool's:
// a directory below the walk root with its own go.mod is another module and
// is skipped, like testdata and dot-directories — while a directory named
// explicitly is still honoured.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for path, content := range map[string]string{
		"go.mod":               "module tmp\n",
		"a/a.go":               "package a\n",
		"a/testdata/fix/f.go":  "package fix\n",
		"a/.hidden/h.go":       "package hidden\n",
		"nested/go.mod":        "module tmp/nested\n",
		"nested/n.go":          "package nested\n",
		"nested/deep/d.go":     "package deep\n",
		"a/inner/go.mod":       "module tmp/a/inner\n",
		"a/inner/pkg/inner.go": "package pkg\n",
	} {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	load := func(patterns ...string) string {
		t.Helper()
		l, err := analysis.NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := l.Load(patterns)
		if err != nil {
			t.Fatal(err)
		}
		var dirs []string
		for _, p := range pkgs {
			rel, err := filepath.Rel(root, p.Dir)
			if err != nil {
				t.Fatal(err)
			}
			dirs = append(dirs, filepath.ToSlash(rel))
		}
		sort.Strings(dirs)
		return strings.Join(dirs, " ")
	}
	if got := load("./..."); got != "a" {
		t.Errorf("./... loaded %q, want only a (nested modules, testdata and dot-dirs skipped)", got)
	}
	// The walk root itself may be a module root: only go.mod files BELOW it
	// mark a boundary.
	if got := load("./nested/..."); got != "nested nested/deep" {
		t.Errorf("./nested/... loaded %q, want the nested module's own tree", got)
	}
	if got := load("./...", "./nested", "./a/testdata/fix"); got != "a a/testdata/fix nested" {
		t.Errorf("explicit directories loaded %q, want them honoured beside ./...", got)
	}
}
