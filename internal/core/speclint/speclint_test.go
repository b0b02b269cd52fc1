// Package speclint holds tests only. The spec language has one checker,
// strict elaboration in speclang; these tests keep the names they had
// when a separate linter lived here and pin that checker's verdicts on
// the same inputs: the malformed fixture, the thesis listings, an
// unparseable file and a minimal clean spec.
package speclint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"speccat/internal/core/cat"
	"speccat/internal/core/spec"
	"speccat/internal/core/speclang"
)

// TestMalformedFixture pins strict elaboration's verdict on every
// statement of the malformed fixture. Each statement is elaborated after
// the fixture's well-formed statements that precede it, so each error is
// its own and names the statement's line. The disconnected diagram D and
// its colimit are well-formed.
func TestMalformedFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "malformed.sw"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := speclang.Parse(string(data))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		line int
		err  error
	}{
		"DUPAX":       {17, spec.ErrIllFormed},
		"BAD":         {23, spec.ErrUnknownSymbol},
		"PHANTOM":     {29, spec.ErrUnknownSymbol},
		"WRONGARITY":  {36, spec.ErrIllFormed},
		"BADTRANS":    {53, spec.ErrUnknownSymbol},
		"TWICE":       {56, spec.ErrIllFormed},
		"BADMORPH":    {59, spec.ErrUnknownSymbol},
		"BADNODE":     {74, cat.ErrBadDiagram},
		"BADARC":      {80, cat.ErrBadDiagram},
		"NOTACOLIMIT": {86, speclang.ErrWrongKind},
		"p1":          {88, speclang.ErrUnbound},
		"p2":          {89, speclang.ErrUnbound},
		"p3":          {90, speclang.ErrUnbound},
		"q":           {92, speclang.ErrUnbound},
	}
	var clean []speclang.Stmt
	var accepted []string
	for i, stmt := range f.Stmts {
		name := f.BindName(i)
		_, err := speclang.Eval(&speclang.File{Stmts: append(clean[:len(clean):len(clean)], stmt)}, speclang.Options{})
		w, bad := want[name]
		switch {
		case !bad && err != nil:
			t.Errorf("%s: %v, want it to elaborate", name, err)
		case bad && (!errors.Is(err, w.err) || !strings.HasPrefix(fmt.Sprint(err), fmt.Sprintf("line %d (%s): ", w.line, name))):
			t.Errorf("%s: %v, want %v at line %d", name, err, w.err, w.line)
		}
		if err == nil {
			clean = append(clean, stmt)
			accepted = append(accepted, name)
		}
	}
	if got := strings.Join(accepted, " "); got != "GOOD SMALL ORPHAN M D APEX" {
		t.Errorf("well-formed statements = %s", got)
	}
}

// TestThesisCorpusClean is the acceptance gate for the thesis
// transcriptions: all three elaborate, strictly except consistentstate.sw,
// whose DECISIONMAKING negates a term and so needs lenient mode. None
// carries a suppression comment.
func TestThesisCorpusClean(t *testing.T) {
	corpus := filepath.Join("..", "speclang", "testdata", "thesis")
	entries, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".sw") {
			continue
		}
		seen++
		data, err := os.ReadFile(filepath.Join(corpus, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "lint:allow") {
			t.Errorf("%s: carries a lint:allow comment", e.Name())
		}
		opts := speclang.Options{Lenient: e.Name() == "consistentstate.sw"}
		if _, err := speclang.Run(string(data), opts); err != nil {
			t.Errorf("%s (lenient=%v): %v", e.Name(), opts.Lenient, err)
		}
	}
	if seen != 3 {
		t.Fatalf("expected 3 thesis corpus files, found %d", seen)
	}
}

// TestParseErrorDiagnostic checks that an unparseable file is an error
// naming its line in both modes: lenient elaboration forgives unknown
// symbols, not syntax.
func TestParseErrorDiagnostic(t *testing.T) {
	for _, opts := range []speclang.Options{{}, {Lenient: true}} {
		env, err := speclang.Run("X = spec\nsort\n", opts)
		if err == nil || env != nil {
			t.Fatalf("lenient=%v: got env %v, err %v, want a parse error", opts.Lenient, env, err)
		}
		if !strings.Contains(err.Error(), "3:1:") {
			t.Errorf("lenient=%v: parse error %q lacks its line", opts.Lenient, err)
		}
	}
}

// TestCleanSpecNoFindings sanity-checks that a minimal well-formed file
// elaborates strictly and binds its prove statement as the placeholder
// the prover later replaces.
func TestCleanSpecNoFindings(t *testing.T) {
	src := `A = spec
sort S = Nat
op P : S -> Boolean
axiom p is
fa(x:S) P(x)
theorem q is
fa(x:S) P(x)
endspec
pr = prove q in A using p
`
	env, err := speclang.Run(src, speclang.Options{})
	if err != nil {
		t.Fatalf("clean spec: %v", err)
	}
	if got := strings.Join(env.Names(), " "); got != "A pr" {
		t.Errorf("bound %s, want A pr", got)
	}
	if v, ok := env.Lookup("pr"); !ok || v.Text != "prove q in A (skipped)" {
		t.Errorf("pr = %+v, want the placeholder", v)
	}
}
