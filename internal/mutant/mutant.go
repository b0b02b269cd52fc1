// Package mutant is the one ablation mechanism: a catalogue of seeded
// defects, each a set of exact source edits, and a runner that applies a
// mutant to a copy of the module and runs the gates that must kill it — or,
// as a control arm, spare it. A gate is a go test of one named test or a
// speccatlint layer over ./internal/...; a kill is a non-zero exit. Served
// code carries no switch for a defect: the defect lives here, as text.
//
// The runner shells out to the go tool, so nothing served may link this
// package (make lint checks tpcserve). Gates never call the runner, so
// kills never nest.
package mutant

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// Edit replaces the one occurrence of Old in File (module-relative, slash
// separated) with New.
type Edit struct{ File, Old, New string }

// Gate is the test Test of package Pkg or, when Layer is set, speccatlint
// -only Layer over ./internal/....
type Gate struct{ Pkg, Test, Layer string }

// Test names the gate that runs pkg's test; Lint the one that runs a layer.
func Test(pkg, test string) Gate { return Gate{Pkg: pkg, Test: test} }
func Lint(layer string) Gate     { return Gate{Layer: layer} }

func (g Gate) String() string {
	if g.Layer != "" {
		return "speccatlint -only " + g.Layer
	}
	return g.Test
}

// Mutant is one catalogued defect: its edits, the gates that must fail on
// it and the gates that must still pass on it.
type Mutant struct {
	Name          string
	Edits         []Edit
	Kills, Spares []Gate
}

// Verdict is one gate's outcome on one mutant. Want marks a kill gate;
// Evidence is the gate's first test-log or finding line, for a kill its
// first failure line; ControlPassed is the same gate on the unmutated copy.
type Verdict struct {
	Mutant                      string
	Gate                        Gate
	Want, Killed, ControlPassed bool
	Evidence                    string
}

func (v Verdict) String() string {
	verdict, control := "spared", "passes"
	if v.Killed {
		verdict = "KILLED"
	}
	if !v.ControlPassed {
		control = "FAILS"
	}
	if !v.AsExpected() {
		control += " (NOT AS CATALOGUED)"
	}
	return fmt.Sprintf("%s × %s: %s — %s; on the unmutated copy the gate %s", v.Mutant, v.Gate, verdict, v.Evidence, control)
}

// AsExpected reports a kill gate that killed or a spare gate that spared,
// the gate passing on the unmutated copy.
func (v Verdict) AsExpected() bool { return v.Killed == v.Want && v.ControlPassed }

// Judge judges the catalogued mutant named name in the module the working
// directory is in, on its gates named in only (by Gate.String), or on all
// its gates when only is empty. Each gate also runs on an unmutated copy,
// as the verdict's control.
func Judge(name string, only ...string) ([]Verdict, error) {
	i := slices.IndexFunc(Catalogue(), func(m Mutant) bool { return m.Name == name })
	if i < 0 {
		return nil, fmt.Errorf("mutant: no mutant %q", name)
	}
	m := Catalogue()[i]
	gates := slices.DeleteFunc(append(slices.Clone(m.Kills), m.Spares...), func(g Gate) bool {
		return len(only) > 0 && !slices.Contains(only, g.String())
	})
	if len(gates) < len(only) {
		return nil, fmt.Errorf("mutant %s has no gate among %q", name, only)
	}
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	dir, err := copyModule(root, m.Edits)
	if err != nil {
		return nil, fmt.Errorf("mutant %s: %w", name, err)
	}
	defer os.RemoveAll(dir)
	control, err := copyModule(root, nil)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(control)
	var out []Verdict
	for _, g := range gates {
		killed, evidence, err := run(dir, g)
		if err != nil {
			return nil, fmt.Errorf("mutant %s: %w", name, err)
		}
		failed, _, err := run(control, g)
		if err != nil {
			return nil, fmt.Errorf("control: %w", err)
		}
		out = append(out, Verdict{name, g, slices.Contains(m.Kills, g), killed, !failed, evidence})
	}
	return out, nil
}

// moduleRoot is the directory of the go.mod governing the working directory.
func moduleRoot() (string, error) {
	gomod, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil || len(bytes.TrimSpace(gomod)) == 0 {
		return "", errors.Join(errors.New("mutant: not inside a module"), err)
	}
	return filepath.Dir(string(bytes.TrimSpace(gomod))), nil
}

// copyModule copies the module at root into a new temporary directory,
// leaving out .git, bench/ and every other top-level dot directory, then
// applies edits; each edit's Old text must occur exactly once in its file.
func copyModule(root string, edits []Edit) (string, error) {
	dir, err := os.MkdirTemp("", "mutant-")
	if err != nil {
		return "", err
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(root, path)
		switch {
		case err != nil:
			return err
		case d.Name() == ".git" || d.IsDir() && filepath.Dir(rel) == "." && (rel == "bench" || strings.HasPrefix(rel, ".") && rel != "."):
			return filepath.SkipDir
		case d.IsDir():
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		case !d.Type().IsRegular():
			return nil
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, rel), data, 0o644)
		}
		return err
	})
	for _, e := range edits {
		if err != nil {
			break
		}
		path := filepath.Join(dir, filepath.FromSlash(e.File))
		var data []byte
		if data, err = os.ReadFile(path); err == nil {
			if n := bytes.Count(data, []byte(e.Old)); n != 1 {
				err = fmt.Errorf("edit of %s: old text occurs %d times, want 1: %q", e.File, n, e.Old)
			} else {
				err = os.WriteFile(path, bytes.Replace(data, []byte(e.Old), []byte(e.New), 1), 0o644)
			}
		}
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

// run runs gate g in the module copy dir and reports whether it failed,
// with its first test-log or finding line as evidence. A copy that does not
// build, or a test gate that names no test of its package, is an error —
// neither a kill nor a pass. Builds use -trimpath, so copies in different
// directories share the build cache.
func run(dir string, g Gate) (failed bool, evidence string, err error) {
	if g.Layer != "" {
		return runLint(dir, g.Layer)
	}
	cmd := exec.Command("go", "test", "-trimpath", "-count=1", "-json", "-run", "^"+g.Test+"$", g.Pkg)
	cmd.Dir = dir
	stdout, _ := cmd.Output() // a failing gate exits 1: the events say what ran and how
	var result string
	var output, build []string
	for sc := bufio.NewScanner(bytes.NewReader(stdout)); sc.Scan(); {
		var ev struct{ Action, Test, Output string }
		switch _ = json.Unmarshal(sc.Bytes(), &ev); {
		case ev.Action == "build-output":
			build = append(build, ev.Output)
		case ev.Test != g.Test:
		case ev.Action == "output":
			output = append(output, strings.TrimRight(ev.Output, "\n"))
		case ev.Action == "pass" || ev.Action == "fail" || ev.Action == "skip":
			result = ev.Action
		}
	}
	switch {
	case len(build) > 0:
		return false, "", fmt.Errorf("%s does not build: %s", g.Pkg, strings.TrimSpace(build[0]))
	case result == "" || result == "skip":
		return false, "", fmt.Errorf("gate %s ran no test in %s", g, g.Pkg)
	}
	testLog := regexp.MustCompile(`^\s+\S+_test\.go:\d+: (.*)$`)
	for _, l := range output {
		if m := testLog.FindStringSubmatch(l); m != nil {
			return result == "fail", m[1], nil
		}
	}
	return result == "fail", "", nil
}

// runLint runs one speccatlint layer in the copy. A finding exits 1,
// which go run reports as "exit status 1": that kills, with the first
// finding as evidence; any other failure is an error.
func runLint(dir, layer string) (bool, string, error) {
	goroot, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		return false, "", err
	}
	cmd := exec.Command("go", "run", "-trimpath", "./cmd/speccatlint", "-only", layer, "./internal/...")
	// A -trimpath binary does not know its GOROOT, where the loader reads
	// the standard library's source.
	var stderr bytes.Buffer
	cmd.Dir, cmd.Env, cmd.Stderr = dir, append(os.Environ(), "GOROOT="+string(bytes.TrimSpace(goroot))), &stderr
	out, err := cmd.Output()
	first, _, _ := strings.Cut(strings.ReplaceAll(string(out), dir+string(filepath.Separator), ""), "\n")
	switch {
	case err == nil:
		return false, "", nil
	case strings.HasSuffix(strings.TrimSpace(stderr.String()), "exit status 1"):
		return true, first, nil
	}
	return false, "", fmt.Errorf("speccatlint -only %s: %w: %s", layer, err, stderr.String())
}
