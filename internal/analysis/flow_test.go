package analysis_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"

	"speccat/internal/analysis"
)

const flowSrc = `package f

func gen(string)   {}
func probe(string) {}
func cond() bool   { return true }
func key() string  { return "" }

func ifElse() {
	if cond() {
		gen("a")
		gen("b")
	} else {
		gen("a")
	}
	probe("ifelse")
}

func switchNoDefault(n int) {
	switch n {
	case 1:
		gen("a")
	}
	probe("switch")
}

func switchDefault(v any) {
	switch v.(type) {
	case int:
		gen("a")
	default:
		gen("a")
	}
	probe("typeswitch")
}

func loop() {
	for i := 0; i < 3; i++ {
		gen("a")
		probe("inloop")
	}
	probe("afterloop")
}

func branchReturns() {
	if cond() {
		gen("a")
		return
	}
	gen("b")
	probe("afterreturn")
}

func allReturn() {
	if cond() {
		return
	} else {
		return
	}
}

func closure() {
	gen("a")
	f := func() {
		probe("inlit")
		gen("c")
		return
	}
	defer probe("deferred")
	gen("b")
	f()
	probe("afterlit")
}

func store(m map[string]int) {
	m[key()] = 1
	m["k"]++
}
`

// testState is the smallest state a layer could build from the helpers:
// one must-set and one may-set over the same gen events.
type testState struct {
	analysis.Term
	must analysis.Must[bool]
	may  analysis.May[bool]
}

func (s *testState) Clone() *testState {
	return &testState{Term: s.Term, must: s.must.Clone(), may: s.may.Clone()}
}

func (s *testState) Join(live []*testState, at []token.Pos) {
	s.must = analysis.JoinMust(analysis.Project(live, func(b *testState) analysis.Must[bool] { return b.must }), at)
	s.may = analysis.JoinMay(analysis.Project(live, func(b *testState) analysis.May[bool] { return b.may }))
}

func keys[V any](m map[string]V) string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// TestFlowSemantics pins the generic dataflow on small synthetic functions:
// must-intersection vs may-union at if/else, a switch without default, a
// zero-iteration loop, a branch that returns, and closure / defer bodies
// analysed against a snapshot — plus the three hook points.
func TestFlowSemantics(t *testing.T) {
	pkg := loadSource(t, flowSrc)[0]
	line := func(p token.Pos) int { return pkg.Fset.Position(p).Line }
	probes := map[string]string{}
	var returns, stores, calls []string
	var fn string
	flow := &analysis.Flow[*testState]{
		Call: func(c *ast.CallExpr, s *testState) {
			name := c.Fun.(*ast.Ident).Name
			calls = append(calls, fn+":"+name)
			if len(c.Args) != 1 {
				return
			}
			arg, _ := strconv.Unquote(c.Args[0].(*ast.BasicLit).Value)
			switch name {
			case "gen":
				s.must.Gen(arg, true)
				s.may[arg] = true
			case "probe":
				killed := ""
				for k, p := range s.must.KilledAt {
					killed += fmt.Sprintf(" %s@%d", k, line(p))
				}
				probes[arg] = fmt.Sprintf("must={%s} may={%s}%s", keys(s.must.Has), keys(s.may), killed)
			}
		},
		Return: func(pos token.Pos, _ *testState) { returns = append(returns, fmt.Sprintf("%s@%d", fn, line(pos))) },
		Store: func(target ast.Expr, _ token.Pos, _ *testState) {
			stores = append(stores, fn+":"+target.(*ast.Ident).Name)
		},
	}
	terminated := map[string]bool{}
	for _, decl := range pkg.Files[0].Decls {
		fd := decl.(*ast.FuncDecl)
		fn = fd.Name.Name
		s := &testState{must: analysis.NewMust[bool](), may: analysis.May[bool]{}}
		flow.Block(fd.Body.List, s)
		terminated[fn] = s.Terminated()
	}

	for label, want := range map[string]string{
		// b is generated on one branch only: out of the must-set, in the
		// may-set, and blamed on the else branch (line 12) that skipped it.
		"ifelse": "must={a} may={a,b} b@12",
		// No default: the implicit pass-through branch (blamed at the
		// switch, line 19) provides nothing.
		"switch": "must={} may={a} a@19",
		// With a default every path generates a.
		"typeswitch": "must={a} may={a}",
		// Inside the body the evolving state holds a; after the loop the
		// out-state is the in-state (it may have run zero times).
		"inloop":    "must={a} may={a}",
		"afterloop": "must={} may={}",
		// The returning branch never reaches the join: only the fall-through
		// path's facts survive, and a is not even a may-fact.
		"afterreturn": "must={b} may={b}",
		// The closure and the deferred call see the snapshot at their
		// creation (a, not b); the closure's own gen never leaks out.
		"inlit":    "must={a} may={a}",
		"deferred": "must={a} may={a}",
		"afterlit": "must={a,b} may={a,b}",
	} {
		if probes[label] != want {
			t.Errorf("probe %s: %s, want %s", label, probes[label], want)
		}
	}
	if !terminated["allReturn"] || terminated["branchReturns"] || terminated["ifElse"] {
		t.Errorf("terminated flags = %v, want only allReturn (both branches return) terminated", terminated)
	}
	// The Return hook sees the function's own returns, never a closure's.
	if got := strings.Join(returns, " "); got != "cond@5 key@6 branchReturns@47 allReturn@55 allReturn@57" {
		t.Errorf("Return hook saw %q", got)
	}
	// An indexed store evaluates its index (the key() call) and then
	// reports the collection; inc/dec through an index is a store too.
	if got := strings.Join(stores, " "); got != "store:m store:m" {
		t.Errorf("Store hook saw %q", got)
	}
	if !strings.Contains(strings.Join(calls, " "), "store:key") {
		t.Errorf("index expression of a store was not walked: %v", calls)
	}
}
