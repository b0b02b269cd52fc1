package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrLoad is wrapped for package-loading and type-checking failures.
var ErrLoad = errors.New("analysis: load failed")

// Package is one loaded, parsed and type-checked package.
type Package struct {
	// ImportPath is the package's import path within the module (or its
	// directory path when no module root is known).
	ImportPath string
	// Dir is the package directory on disk.
	Dir string
	// Fset positions all files of the load.
	Fset *token.FileSet
	// Files are the parsed non-test Go files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's resolution tables.
	Info *types.Info
}

// Loader parses and type-checks packages of a single module without any
// dependency on the go command: module-internal imports are resolved from
// source, standard-library imports through go/importer.
type Loader struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle guard
}

// NewLoader prepares a loader rooted at the module containing dir. It
// walks upward from dir until it finds a go.mod; without one, the loader
// still works but treats every import as external.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrLoad, err)
	}
	l := &Loader{
		ModuleRoot: abs,
		fset:       token.NewFileSet(),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
	for root := abs; ; root = filepath.Dir(root) {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			l.ModuleRoot = root
			l.ModulePath = modulePath(string(data))
			break
		}
		if filepath.Dir(root) == root {
			break
		}
	}
	l.std = importer.Default()
	return l, nil
}

// modulePath extracts the module path from go.mod content.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// Load resolves the patterns to package directories and loads each. A
// pattern is either a directory (absolute, or relative to the loader's
// module root), or a directory followed by "/..." meaning the whole
// subtree; subtree expansion skips testdata, hidden and version-control
// directories and — exactly as the go tool's ./... does — any nested
// module (a directory below the walk root with its own go.mod), while an
// explicit directory pattern is always honored.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	addDir := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(pat, "...")
			pat = strings.TrimSuffix(pat, "/")
			if pat == "" {
				pat = "."
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.ModuleRoot, dir)
		}
		st, err := os.Stat(dir)
		if err != nil || !st.IsDir() {
			return nil, fmt.Errorf("%w: no such directory %s", ErrLoad, pat)
		}
		if !recursive {
			addDir(dir)
			continue
		}
		err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || isModuleRoot(path)) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				addDir(path)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrLoad, err)
		}
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// isModuleRoot reports whether dir holds a go.mod.
func isModuleRoot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

// hasGoFiles reports whether dir directly contains a non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps a directory to its import path within the module.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.ModulePath
	}
	if l.ModulePath == "" {
		return filepath.ToSlash(rel)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// loadDir parses and type-checks the package in dir (non-test files).
func (l *Loader) loadDir(dir string) (*Package, error) {
	ip := l.importPathFor(dir)
	if pkg, ok := l.pkgs[ip]; ok {
		return pkg, nil
	}
	if l.loading[ip] {
		return nil, fmt.Errorf("%w: import cycle through %s", ErrLoad, ip)
	}
	l.loading[ip] = true
	defer delete(l.loading, ip)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrLoad, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrLoad, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%w: no Go files in %s", ErrLoad, dir)
	}
	sort.Slice(files, func(i, j int) bool {
		return l.fset.Position(files[i].Pos()).Filename < l.fset.Position(files[j].Pos()).Filename
	})

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(ip, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%w: typecheck %s: %w", ErrLoad, ip, err)
	}
	pkg := &Package{
		ImportPath: ip,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[ip] = pkg
	return pkg, nil
}

// loaderImporter resolves module-internal imports from source and
// everything else through the standard importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if l.ModulePath != "" && (path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
