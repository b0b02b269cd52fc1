package layers

import (
	"os"
	"path/filepath"
	"testing"

	"speccat/internal/analysis"
)

// TestModuleLintsClean is `make lint`'s Go half as a tier-1 test: load
// ./... from the module root exactly as speccatlint does, run every row of
// the layer table, and require zero findings — and zero loaded packages
// that belong to a nested module (bench/ has its own go.mod; the go tool's
// ./... does not descend into it, and neither may the loader).
func TestModuleLintsClean(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{filepath.Join(loader.ModuleRoot, "...")})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 40 {
		t.Fatalf("loaded only %d packages from %s; the walk collapsed", len(pkgs), loader.ModuleRoot)
	}
	for _, pkg := range pkgs {
		for dir := pkg.Dir; dir != loader.ModuleRoot; dir = filepath.Dir(dir) {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				t.Errorf("package %s belongs to the nested module at %s", pkg.ImportPath, dir)
			}
		}
	}
	seen := map[string]bool{}
	for _, l := range Go() {
		if seen[l.Name] || l.Name == "" || l.Doc == "" || (l.Rules == "") != (l.Name == "base") {
			t.Errorf("malformed or duplicate layer row %+v", l)
		}
		seen[l.Name] = true
		_, diags := l.Run(pkgs)
		for _, d := range diags {
			t.Errorf("layer %s: %s", l.Name, d)
		}
	}
	for _, name := range []string{"base", "fsm", "dur", "port", "comm", "lock"} {
		if !seen[name] {
			t.Errorf("layer table lost its %s row", name)
		}
	}
}
