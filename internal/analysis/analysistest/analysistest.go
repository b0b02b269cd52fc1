// Package analysistest is the shared fixture harness for every row of the
// layer table (internal/analysis/layers): the design-rule analyzers of
// internal/analysis and the fsmcheck, durcheck, portcheck, commcheck and
// lockcheck layers. A fixture is
// a directory holding one Go package whose sources carry expectation
// comments:
//
//	badCall() // want `rule: message regexp`
//
// Each backquoted chunk after "want" is a regular expression matched
// against the "rule: message" rendering of a diagnostic reported on that
// line. Check fails on both unexpected diagnostics and unmatched
// expectations, so fixtures pin analyzer output exactly.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"speccat/internal/analysis"
)

// Expectation is one `// want` annotation in a fixture file.
type Expectation struct {
	// File is the absolute path of the fixture file.
	File string
	// Line is the 1-based line the diagnostic must land on.
	Line int
	// Re is matched against "rule: message".
	Re *regexp.Regexp
}

// FixtureDir resolves a fixture name to the absolute path of
// testdata/src/<name> under the calling test's package directory.
func FixtureDir(t testing.TB, name string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// Load parses and type-checks the single fixture package rooted at dir
// with the source-based loader.
func Load(t testing.TB, dir string) []*analysis.Package {
	t.Helper()
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// Expectations scans dir's .go files for want comments.
func Expectations(t testing.TB, dir string) []Expectation {
	t.Helper()
	wantRE := regexp.MustCompile("//\\s*want\\s+(.*)$")
	chunkRE := regexp.MustCompile("`([^`]+)`")
	var out []Expectation
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			chunks := chunkRE.FindAllStringSubmatch(m[1], -1)
			if len(chunks) == 0 {
				t.Fatalf("%s:%d: malformed want comment (use backquoted regexps)", path, i+1)
			}
			for _, c := range chunks {
				re, err := regexp.Compile(c[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
				}
				out = append(out, Expectation{File: path, Line: i + 1, Re: re})
			}
		}
	}
	return out
}

// Check asserts that diags and dir's want comments match one-to-one: every
// diagnostic is expected on its line, and every expectation is hit.
func Check(t testing.TB, dir string, diags []analysis.Diagnostic) {
	t.Helper()
	wants := Expectations(t, dir)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if matched[i] || w.File != d.Pos.Filename || w.Line != d.Pos.Line {
				continue
			}
			if w.Re.MatchString(d.Rule + ": " + d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.File, w.Line, w.Re)
		}
	}
}
