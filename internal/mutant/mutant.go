// Package mutant is the one ablation mechanism: a catalogue of seeded
// defects, each a set of exact source edits, and a runner that applies a
// mutant to a copy of the module and runs the gates that must kill it — or,
// as a control arm, spare it. A gate is a go test of one named test or a
// speccatlint layer over ./internal/...; a kill is a failed test or a
// finding of the layer. Served code carries no switch for a defect: the
// defect lives here, as text.
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
	"runtime"
	"slices"
	"strings"
	"sync"

	"speccat/internal/analysis/layers"
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

// Judge judges the catalogued mutants named in names in the module the
// working directory is in, each on its gates named in only (by
// Gate.String), or on all its gates when only is empty. Every copy is of
// the same tree, so each gate runs once on one unmutated copy, as the
// control of every verdict on it. The copies are judged GOMAXPROCS at a
// time; the verdicts come in the order of names.
func Judge(names []string, only ...string) ([]Verdict, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	pick := func(gates []Gate) []Gate {
		return slices.DeleteFunc(slices.Clone(gates), func(g Gate) bool { return len(only) > 0 && !slices.Contains(only, g.String()) })
	}
	ms := []Mutant{{Name: "control"}} // the unmutated copy, spared by every gate the mutants name
	for _, name := range names {
		i := slices.IndexFunc(Catalogue(), func(m Mutant) bool { return m.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("mutant: no mutant %q", name)
		}
		m := Catalogue()[i]
		m.Kills, m.Spares = pick(m.Kills), pick(m.Spares)
		ms[0].Spares = append(ms[0].Spares, m.gates()...) // a gate named twice runs once
		ms = append(ms, m)
	}
	for _, o := range only {
		if !slices.ContainsFunc(ms[0].Spares, func(g Gate) bool { return g.String() == o }) {
			return nil, fmt.Errorf("mutants %q have no gate %q", names, o)
		}
	}
	ran, errs := make([]map[Gate]outcome, len(ms)), make([]error, len(ms))
	slots, wg := make(chan struct{}, runtime.GOMAXPROCS(0)), sync.WaitGroup{}
	for i, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			ran[i], errs[i] = m.run(root)
			<-slots
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var out []Verdict
	for i, m := range ms[1:] {
		for _, g := range m.gates() {
			r := ran[i+1][g]
			out = append(out, Verdict{m.Name, g, slices.Contains(m.Kills, g), r.failed, !ran[0][g].failed, r.evidence})
		}
	}
	return out, nil
}

func (m Mutant) gates() []Gate { return append(slices.Clone(m.Kills), m.Spares...) }

// outcome is one gate's run on one copy.
type outcome struct {
	failed   bool
	evidence string
}

// run runs m's gates on a copy of the module at root with m's edits
// applied: the test gates of a package in one go test, the lint gates in
// one speccatlint run of every layer.
func (m Mutant) run(root string) (map[Gate]outcome, error) {
	dir, err := copyModule(root, m.Edits)
	if err != nil {
		return nil, fmt.Errorf("mutant %s: %w", m.Name, err)
	}
	defer os.RemoveAll(dir)
	out, tests := map[Gate]outcome{}, map[string][]string{}
	for _, g := range m.gates() {
		if g.Layer != "" {
			out[g] = outcome{}
		} else {
			tests[g.Pkg] = append(tests[g.Pkg], g.Test)
		}
	}
	if len(out) > 0 {
		err = runLint(dir, out)
	}
	for pkg, names := range tests {
		err = errors.Join(err, runTests(dir, pkg, names, out))
	}
	if err != nil {
		return nil, fmt.Errorf("mutant %s: %w", m.Name, err)
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

// runTests runs the named tests of pkg in the module copy dir in one go
// test and records whether each failed, with its first test-log line as
// evidence. A copy that does not build, or a gate that names no test of its
// package, is an error — neither a kill nor a pass. A test the run left
// without a result (a panic ends the binary) runs again alone. Builds use
// -trimpath, so copies in different directories share the build cache.
func runTests(dir, pkg string, names []string, out map[Gate]outcome) error {
	cmd := exec.Command("go", "test", "-trimpath", "-count=1", "-json", "-run", "^("+strings.Join(names, "|")+")$", pkg)
	cmd.Dir = dir
	stdout, _ := cmd.Output() // a failing gate exits 1: the events say what ran and how
	testLog := regexp.MustCompile(`^\s+\S+_test\.go:\d+: (.*)$`)
	ran := map[string]bool{}
	for sc := bufio.NewScanner(bytes.NewReader(stdout)); sc.Scan(); {
		var ev struct{ Action, Test, Output string }
		_ = json.Unmarshal(sc.Bytes(), &ev)
		g := Test(pkg, ev.Test)
		switch log := testLog.FindStringSubmatch(strings.TrimRight(ev.Output, "\n")); {
		case ev.Action == "build-output":
			return fmt.Errorf("%s does not build: %s", pkg, strings.TrimSpace(ev.Output))
		case !slices.Contains(names, ev.Test):
		case ev.Action == "output" && log != nil && out[g].evidence == "":
			out[g] = outcome{evidence: log[1]}
		case ev.Action == "pass" || ev.Action == "fail":
			out[g], ran[ev.Test] = outcome{ev.Action == "fail", out[g].evidence}, true
		}
	}
	for _, name := range names {
		switch {
		case ran[name]:
		case len(names) == 1:
			return fmt.Errorf("gate %s ran no test in %s", name, pkg)
		default:
			if err := runTests(dir, pkg, []string{name}, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// runLint runs every speccatlint layer over ./internal/... in dir and
// records the outcome of each lint gate out holds: killed by its layer's
// first finding, with paths relative to the copy. Findings exit 1, which
// go run reports as "exit status 1"; any other failure is an error, as is
// a gate naming no layer, which no finding could ever kill.
func runLint(dir string, out map[Gate]outcome) error {
	for g := range out {
		if !slices.ContainsFunc(layers.Go(), func(l layers.Layer) bool { return l.Name == g.Layer }) {
			return fmt.Errorf("gate %s names no speccatlint layer", g)
		}
	}
	goroot, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "run", "-trimpath", "./cmd/speccatlint", "-json", "./internal/...")
	// A -trimpath binary does not know its GOROOT, where the loader reads
	// the standard library's source.
	var stderr bytes.Buffer
	cmd.Dir, cmd.Env, cmd.Stderr = dir, append(os.Environ(), "GOROOT="+string(bytes.TrimSpace(goroot))), &stderr
	stdout, err := cmd.Output()
	var findings []struct {
		File, Rule, Layer, Message string
		Line, Col                  int
	}
	if err != nil && !strings.HasSuffix(strings.TrimSpace(stderr.String()), "exit status 1") {
		return fmt.Errorf("speccatlint: %w: %s", err, stderr.String())
	} else if err := json.Unmarshal(stdout, &findings); err != nil {
		return fmt.Errorf("speccatlint: %w", err)
	}
	for i := len(findings) - 1; i >= 0; i-- { // backwards: a layer's first finding is recorded last
		f := findings[i]
		if _, gated := out[Lint(f.Layer)]; gated {
			out[Lint(f.Layer)] = outcome{true, strings.TrimPrefix(fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message), dir+string(filepath.Separator))}
		}
	}
	return nil
}
