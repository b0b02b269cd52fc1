// Package provesched extracts the proof obligations of a speclang file
// and discharges them on a worker pool. It is the only path from a prove
// statement to a proof: the elaborator validates the statement and binds
// a placeholder, and Scheduler.Verify elaborates, discharges and binds
// the proofs over the placeholders.
//
// A prove statement only reads the spec it names, so once elaboration has
// built every spec the obligations are mutually independent and can run
// concurrently. The scheduler still computes the spec-dependency DAG
// (imports, translations, morphisms, diagram nodes, colimits): the DAG
// fixes the deterministic result order (source order, which is a
// topological order of the DAG), and its depth drives the start order —
// obligations over the deepest composites carry the largest premise sets
// and are dispatched first, shrinking the tail of the schedule.
//
// Results are deterministic and bit-identical at any worker count: each
// Prove call is a pure function of its premise set, and the workers share
// no state beyond the read-only environment.
package provesched

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"speccat/internal/core/prover"
	"speccat/internal/core/speclang"
)

// ErrObligation is wrapped when an obligation references a spec, theorem,
// or axiom the environment does not carry.
var ErrObligation = errors.New("provesched: bad obligation")

// Obligation is one prove statement, annotated with its position in the
// spec-dependency DAG.
type Obligation struct {
	// Name is the name the statement is bound under (p1..p5 in the
	// corpus; speclang.File.BindName for a bare prove expression).
	Name string
	// Index is the statement's position in the source file; results are
	// emitted in Index order.
	Index int
	// Line is the statement's source line.
	Line int
	// In is the spec carrying the theorem.
	In string
	// Theorem is the goal to prove.
	Theorem string
	// Using lists the premise axioms; empty means every axiom of In (the
	// monolithic proof).
	Using []string
	// Deps are the names in In's spec-dependency closure, sorted — the
	// DAG ancestry the premises descend along.
	Deps []string
	// Depth is the longest reference path from In down to a DAG root;
	// deeper composites accumulate larger premise sets.
	Depth int
}

// Extract parses src and returns its prove obligations in source order,
// each annotated with the spec-dependency closure and depth of the spec
// it proves in. References that do not resolve within the file are
// ignored here; elaboration reports them.
func Extract(src string) ([]Obligation, error) {
	f, err := speclang.Parse(src)
	if err != nil {
		return nil, err
	}
	return FromFile(f), nil
}

// FromFile computes the obligations of an already-parsed file.
func FromFile(f *speclang.File) []Obligation {
	n := len(f.Stmts)
	// Resolve each statement's references to the latest earlier binding of
	// that name (re-binding shadows), making the graph acyclic by
	// construction.
	bound := map[string]int{}
	refs := make([][]int, n)
	for i, stmt := range f.Stmts {
		for _, name := range exprRefs(stmt.Expr) {
			if j, ok := bound[name]; ok {
				refs[i] = append(refs[i], j)
			}
		}
		if stmt.Name != "" {
			bound[stmt.Name] = i
		}
	}
	// Depth and transitive closure, in order (references point backwards).
	depth := make([]int, n)
	closure := make([]map[int]bool, n)
	for i := 0; i < n; i++ {
		closure[i] = map[int]bool{}
		for _, j := range refs[i] {
			if d := depth[j] + 1; d > depth[i] {
				depth[i] = d
			}
			closure[i][j] = true
			for k := range closure[j] {
				closure[i][k] = true
			}
		}
	}
	var out []Obligation
	for i, stmt := range f.Stmts {
		pe, ok := stmt.Expr.(*speclang.ProveExpr)
		if !ok {
			continue
		}
		ob := Obligation{
			Name:    f.BindName(i),
			Index:   i,
			Line:    stmt.Line,
			In:      pe.In,
			Theorem: pe.Theorem,
			Using:   append([]string{}, pe.Using...),
		}
		if j, resolved := latestBefore(f, pe.In, i); resolved {
			ob.Depth = depth[j]
			seen := map[string]bool{}
			for k := range closure[j] {
				if name := f.Stmts[k].Name; name != "" && !seen[name] {
					seen[name] = true
					ob.Deps = append(ob.Deps, name)
				}
			}
			sort.Strings(ob.Deps)
		}
		out = append(out, ob)
	}
	return out
}

// latestBefore resolves name to the latest statement before index i.
func latestBefore(f *speclang.File, name string, i int) (int, bool) {
	for j := i - 1; j >= 0; j-- {
		if f.Stmts[j].Name == name {
			return j, true
		}
	}
	return 0, false
}

// exprRefs lists the names an expression references.
func exprRefs(e speclang.Expr) []string {
	switch x := e.(type) {
	case *speclang.SpecExpr:
		return x.Imports
	case *speclang.TranslateExpr:
		return []string{x.Source}
	case *speclang.MorphismExpr:
		return []string{x.Source, x.Target}
	case *speclang.MorphismRef:
		return []string{x.Name}
	case *speclang.DiagramExpr:
		var out []string
		for _, node := range x.Nodes {
			out = append(out, node.Spec)
		}
		for _, arc := range x.Arcs {
			out = append(out, exprRefs(arc.M)...)
		}
		return out
	case *speclang.ColimitExpr:
		return []string{x.Diagram}
	case *speclang.ProveExpr:
		return []string{x.In}
	case *speclang.PrintExpr:
		return []string{x.Name}
	default:
		return nil
	}
}

// Result is the outcome of one scheduled obligation.
type Result struct {
	Obligation Obligation
	// Proof is the refutation; nil when Err is set.
	Proof *prover.Result
	// Err carries a failed verdict (wrapping prover.ErrExhausted or
	// prover.ErrLimit) or an ErrObligation lookup failure.
	Err error
}

// Scheduler runs proof obligations on a worker pool.
type Scheduler struct {
	// Workers is the pool size; values <= 0 mean GOMAXPROCS.
	Workers int
	// Limits bounds each proof search. The zero value means
	// prover.DefaultLimits.
	Limits prover.Limits
}

// Verify is the one way from source text to a proved environment: it
// parses src once, elaborates it, discharges every prove statement on the
// pool and binds each proof over the placeholder elaboration left, so
// Names() keeps source order. The results are in source order too. It
// fails on the first elaboration error, else on the first obligation, in
// source order, that was not proved.
func (s *Scheduler) Verify(src string, opts speclang.Options) (*speclang.Env, []Result, error) {
	f, err := speclang.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	env, err := speclang.Eval(f, opts)
	if err != nil {
		return nil, nil, err
	}
	results := s.Run(env, FromFile(f))
	if err := bind(env, results); err != nil {
		return nil, nil, err
	}
	return env, results, nil
}

// Run discharges the obligations against env. Results are indexed like
// obs (source order) regardless of worker count or completion
// interleaving, and each proof is bit-identical at every worker count.
func (s *Scheduler) Run(env *speclang.Env, obs []Obligation) []Result {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Dispatch deepest-first (largest premise sets first), ties in source
	// order: starting the long searches early shortens the schedule tail.
	order := make([]int, len(obs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if obs[order[a]].Depth != obs[order[b]].Depth {
			return obs[order[a]].Depth > obs[order[b]].Depth
		}
		return obs[order[a]].Index < obs[order[b]].Index
	})

	results := make([]Result, len(obs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = s.proveOne(env, obs[i])
			}
		}()
	}
	for _, i := range order {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// proveOne discharges a single obligation on the premises and goal
// Env.ProveOperands resolves for it.
func (s *Scheduler) proveOne(env *speclang.Env, ob Obligation) Result {
	premises, goal, err := env.ProveOperands(ob.In, ob.Theorem, ob.Using)
	if err != nil {
		return Result{Obligation: ob, Err: fmt.Errorf("%w: %w", ErrObligation, err)}
	}
	lim := s.Limits
	if lim == (prover.Limits{}) {
		lim = prover.DefaultLimits()
	}
	pr := &prover.Prover{Limits: lim}
	res, err := pr.Prove(premises, goal)
	if err != nil {
		return Result{Obligation: ob, Err: fmt.Errorf("prove %s in %s: %w", ob.Theorem, ob.In, err)}
	}
	return Result{Obligation: ob, Proof: res}
}

// bind attaches the results to env under their statement names, replacing
// the placeholders elaboration left. It binds nothing and returns the
// first failed result's error, in source order, if any failed.
func bind(env *speclang.Env, results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("line %d (%s): %w", r.Obligation.Line, r.Obligation.Name, r.Err)
		}
	}
	for _, r := range results {
		env.Bind(r.Obligation.Name, &speclang.Value{Kind: speclang.KindProof, Proof: r.Proof})
	}
	return nil
}
