// Package prover implements a saturation-based resolution theorem prover for
// sorted first-order logic. It is the stand-in for the Snark prover used
// through Specware in the paper: given a set of axioms and a conjecture, it
// negates the conjecture, clausifies everything, and searches for the empty
// clause by binary resolution with factoring.
//
// The search uses the given-clause algorithm with a set-of-support strategy
// (clauses descending from the negated conjecture are preferred), unit
// preference, and duplicate elimination by sort-aware canonical identity.
// A literal index maps each (polarity, predicate, arity) to the active
// clauses that have such a literal, so a given clause is resolved only
// against clauses with a complementary one, in the order they became
// active. A resolvent is checked before it is built: its simplification,
// term sizes and duplicate key are computed through the unifier, and only
// a clause within the limits and not seen before is materialised.
// Limits bound the search so a failed proof attempt terminates; a search
// whose queue drains after the limits discarded a clause reports ErrLimit,
// not ErrExhausted.
package prover

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"speccat/internal/core/logic"
)

// Sentinel errors returned by Prove.
var (
	// ErrExhausted means the clause space was saturated without refutation:
	// the conjecture does not follow from the axioms (by resolution).
	ErrExhausted = errors.New("prover: saturated without refutation; goal not entailed")
	// ErrLimit means a resource limit stopped the search inconclusively.
	ErrLimit = errors.New("prover: resource limit reached before refutation")
	// errDiscarded marks an ErrLimit whose queue drained only because the
	// limits discarded clauses: the clause space was not saturated.
	errDiscarded = errors.New("queue drained after discarding")
)

// Limits bounds a proof search.
type Limits struct {
	// MaxClauses caps the number of retained clauses.
	MaxClauses int
	// MaxIterations caps given-clause loop iterations.
	MaxIterations int
	// MaxClauseLiterals discards clauses, inputs included, longer than this.
	MaxClauseLiterals int
	// MaxTermSize discards clauses containing literals bigger than this.
	MaxTermSize int
	// Timeout caps wall-clock search time; zero means no timeout.
	Timeout time.Duration
}

// DefaultLimits are generous enough for every proof in the thesis corpus.
func DefaultLimits() Limits {
	return Limits{
		MaxClauses:        200000,
		MaxIterations:     50000,
		MaxClauseLiterals: 24,
		MaxTermSize:       120,
		Timeout:           30 * time.Second,
	}
}

// Stats reports what a proof search did.
type Stats struct {
	// InputClauses is the number of clauses after clausification.
	InputClauses int
	// Generated counts derived clauses, including discarded ones.
	Generated int
	// Retained counts clauses kept after subsumption/limits.
	Retained int
	// Iterations counts given-clause loop rounds.
	Iterations int
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
	// ProofLength is the number of resolution steps in the found proof.
	ProofLength int
}

// Result is the outcome of a successful proof.
type Result struct {
	Stats Stats
	// Proof lists the derivation steps that end in the empty clause.
	Proof []ProofStep
}

// ProofStep records one clause in the refutation: either an input clause or
// a resolvent/factor of earlier steps.
type ProofStep struct {
	// Index is the step's position in the proof.
	Index int
	// Clause is the derived clause.
	Clause *logic.Clause
	// Rule is "input", "resolve", or "factor".
	Rule string
	// Parents are indices of parent steps (empty for inputs).
	Parents []int
	// Origin names the axiom or conjecture an input clause came from.
	Origin string
}

// String renders a proof step as a single line.
func (p ProofStep) String() string {
	switch p.Rule {
	case "input":
		return fmt.Sprintf("[%d] %s  (input: %s)", p.Index, p.Clause, p.Origin)
	default:
		parents := make([]string, len(p.Parents))
		for i, q := range p.Parents {
			parents[i] = fmt.Sprintf("%d", q)
		}
		return fmt.Sprintf("[%d] %s  (%s %s)", p.Index, p.Clause, p.Rule, strings.Join(parents, ","))
	}
}

// NamedFormula pairs a formula with a provenance label for proof reporting.
type NamedFormula struct {
	Name    string
	Formula *logic.Formula
}

// Prover holds search configuration. The zero value uses DefaultLimits.
type Prover struct {
	Limits Limits
	// DisableSOS turns off the set-of-support restriction, saturating the
	// full clause set from the start (used by the ablation benchmarks).
	DisableSOS bool
	// Now supplies the clock used for Limits.Timeout and Stats.Elapsed.
	// Nil means the wall clock; tests and simulations inject their own so
	// proof search stays deterministic under a controlled clock.
	Now func() time.Time
}

// deadlineCheckInterval is how often, in given-clause iterations, the
// saturation loop samples the clock against the wall-clock deadline.
const deadlineCheckInterval = 64

// New returns a Prover with default limits.
func New() *Prover { return &Prover{Limits: DefaultLimits()} }

// Prove attempts to show that axioms entail goal. On success it returns the
// refutation; otherwise it returns ErrExhausted or ErrLimit.
func (p *Prover) Prove(axioms []NamedFormula, goal NamedFormula) (*Result, error) {
	lim := p.Limits
	if lim.MaxClauses == 0 {
		lim = DefaultLimits()
	}
	now := p.Now
	if now == nil {
		now = time.Now //lint:allow nowallclock the CLI default; tests and sims inject Prover.Now
	}
	start := now()

	type tagged struct {
		clause *logic.Clause
		sos    bool // descends from the negated conjecture
		origin string
	}
	var inputs []tagged
	for _, ax := range axioms {
		for _, c := range clausify(ax.Name, ax.Formula) {
			inputs = append(inputs, tagged{clause: c, origin: ax.Name})
		}
	}
	negGoal := logic.Not(logic.Closure(goal.Formula))
	for _, c := range clausify("~"+goal.Name, negGoal) {
		inputs = append(inputs, tagged{clause: c, sos: true, origin: "~" + goal.Name})
	}

	run := func(restrictSOS bool) (*Result, error) {
		st := &searchState{
			limits:      lim,
			now:         now,
			start:       start,
			seen:        map[string]int{},
			index:       map[atomKey][]int{},
			deadline:    start.Add(lim.Timeout),
			hasDeadline: lim.Timeout > 0,
			restrictSOS: restrictSOS,
		}
		for _, in := range inputs {
			st.add(in.clause.Literals, nil, "input", nil, in.origin, in.sos)
		}
		st.stats.InputClauses = len(inputs)

		if idx := st.emptyClause(); idx >= 0 {
			return st.result(idx)
		}
		return st.saturate()
	}

	if p.DisableSOS {
		return run(false)
	}
	res, err := run(true)
	if errors.Is(err, ErrExhausted) || errors.Is(err, errDiscarded) {
		// Set-of-support is complete only when the axioms alone are
		// satisfiable; retry unrestricted whenever the queue drained, so
		// inconsistent axiom sets are still refuted.
		return run(false)
	}
	return res, err
}

// clausify converts one named formula to clauses. Skolem symbols are
// namespaced by the formula's name (premise names are unique within a
// spec; the goal is named "~name"), so two premises never share one.
func clausify(name string, f *logic.Formula) []*logic.Clause {
	n := 0
	fresh := func() string { n++; return fmt.Sprintf("sk_%s_%d", name, n) }
	return logic.ClausifyWith(f, fresh)
}

// searchState is the mutable state of one proof search.
type searchState struct {
	limits      Limits
	now         func() time.Time
	start       time.Time
	deadline    time.Time
	hasDeadline bool
	restrictSOS bool
	steps       []ProofStep
	sos         []bool
	size        []int             // total argument term size of each step's clause
	active      []int             // indices of processed clauses
	renamed     []*logic.Clause   // active[i]'s clause, standardized apart once
	index       map[atomKey][]int // ascending positions in active of the clauses with a literal of that key
	queue       []int             // indices of unprocessed clauses
	seen        map[string]int    // canonical key -> step index
	overLits    int               // clauses discarded over MaxClauseLiterals
	overSize    int               // clauses discarded over MaxTermSize
	stats       Stats
	// Buffers reused across candidate clauses.
	key      []byte
	subst    logic.Subst
	lits     []logic.Literal
	partners []int
}

// atomKey is the literal index's key: a literal's polarity, predicate
// (equality is its own kind) and arity.
type atomKey struct {
	negated bool
	kind    logic.FormulaKind
	name    string
	arity   int
}

func (st *searchState) emptyClause() int {
	for i, s := range st.steps {
		if s.Clause.IsEmpty() {
			return i
		}
	}
	return -1
}

// add records the clause that lits form under s unless it is over a
// limit, a duplicate, or over MaxClauses; it returns the step index or -1.
// The size and the key are computed through s and the clause is built only
// once it is kept, so a rejected candidate allocates nothing.
func (st *searchState) add(lits []logic.Literal, s logic.Subst, rule string, parents []int, origin string, sos bool) int {
	if len(lits) > st.limits.MaxClauseLiterals {
		st.overLits++
		return -1
	}
	size := 0
	for _, l := range lits {
		sz := 0
		for _, a := range l.Atom.Args {
			sz += s.Size(a)
		}
		if sz > st.limits.MaxTermSize {
			st.overSize++
			return -1
		}
		size += sz
	}
	// The lookup converts without allocating; only an insert copies the key.
	st.key = s.AppendCanonical(st.key[:0], lits)
	if _, dup := st.seen[string(st.key)]; dup {
		return -1
	}
	if len(st.steps) >= st.limits.MaxClauses {
		return -1
	}
	c := &logic.Clause{Literals: make([]logic.Literal, len(lits))}
	for i, l := range lits {
		c.Literals[i] = l.Apply(s)
	}
	idx := len(st.steps)
	st.seen[string(st.key)] = idx
	st.steps = append(st.steps, ProofStep{Index: idx, Clause: c, Rule: rule, Parents: slices.Clone(parents), Origin: origin})
	st.sos = append(st.sos, sos)
	st.size = append(st.size, size)
	st.queue = append(st.queue, idx)
	st.stats.Retained++
	return idx
}

func (st *searchState) saturate() (*Result, error) {
	for len(st.queue) > 0 {
		st.stats.Iterations++
		if st.stats.Iterations > st.limits.MaxIterations {
			return nil, fmt.Errorf("%w (iterations > %d)", ErrLimit, st.limits.MaxIterations)
		}
		given := st.pickGiven()
		// Each clause is standardized apart once: its "_r" copy joins
		// renamed as it joins active and the index, before the loop below,
		// which resolves the given clause against itself too.
		st.activate(given)
		left := st.steps[given].Clause.RenameVars("_l")

		if idx := st.factor(given); idx >= 0 {
			return st.result(idx)
		}
		// Binary resolution against the active clauses with a
		// complementary literal. Set of support: at least one parent must
		// be a SOS clause.
		for _, i := range st.partnersOf(st.steps[given].Clause) {
			other := st.active[i]
			if st.restrictSOS && !st.sos[given] && !st.sos[other] {
				continue
			}
			if idx := st.resolve(left, st.renamed[i], given, other); idx >= 0 {
				return st.result(idx)
			}
		}
		// Once MaxClauses is reached add keeps nothing, so the search
		// stops here even when the given clause had no partner.
		if len(st.steps) >= st.limits.MaxClauses {
			return nil, fmt.Errorf("%w (clauses >= %d)", ErrLimit, st.limits.MaxClauses)
		}
		// The deadline is sampled after the given clause is processed and
		// only while unprocessed clauses remain: when the timeout fires on
		// the same iteration the clause set saturates, the search still
		// reports the definitive ErrExhausted (non-entailment), never the
		// inconclusive ErrLimit.
		if len(st.queue) > 0 && st.hasDeadline &&
			st.stats.Iterations%deadlineCheckInterval == 0 && st.now().After(st.deadline) {
			return nil, fmt.Errorf("%w (timeout %v)", ErrLimit, st.limits.Timeout)
		}
	}
	// A drained queue is saturation only if the limits discarded nothing.
	var over []string
	if st.overLits > 0 {
		over = append(over, fmt.Sprintf("%d clauses over MaxClauseLiterals %d", st.overLits, st.limits.MaxClauseLiterals))
	}
	if st.overSize > 0 {
		over = append(over, fmt.Sprintf("%d clauses over MaxTermSize %d", st.overSize, st.limits.MaxTermSize))
	}
	if len(over) > 0 {
		return nil, fmt.Errorf("%w (%w %s)", ErrLimit, errDiscarded, strings.Join(over, " and "))
	}
	return nil, ErrExhausted
}

// activate appends a clause to active, its "_r" copy to renamed, and its
// position to the index entry of each of its literals.
func (st *searchState) activate(given int) {
	pos := len(st.active)
	c := st.steps[given].Clause
	st.active = append(st.active, given)
	st.renamed = append(st.renamed, c.RenameVars("_r"))
	for _, l := range c.Literals {
		k := atomKey{l.Negated, l.Atom.Kind, l.Atom.Name, len(l.Atom.Args)}
		if ps := st.index[k]; len(ps) == 0 || ps[len(ps)-1] != pos {
			st.index[k] = append(ps, pos)
		}
	}
}

// partnersOf returns, ascending, the positions in active of the clauses
// with a literal of opposite polarity, the same predicate and the same
// arity as one of c's: the only clauses c can resolve with.
func (st *searchState) partnersOf(c *logic.Clause) []int {
	ps := st.partners[:0]
	for _, l := range c.Literals {
		ps = append(ps, st.index[atomKey{!l.Negated, l.Atom.Kind, l.Atom.Name, len(l.Atom.Args)}]...)
	}
	slices.Sort(ps)
	st.partners = slices.Compact(ps)
	return st.partners
}

// pickGiven removes and returns the best clause index from the queue:
// fewest literals first (unit preference), then smallest term size, then
// oldest. The scan is linear (RBR's monolithic queue reaches ~10k
// clauses), so each comparison reads the weight add cached.
func (st *searchState) pickGiven() int {
	best := 0
	for i := 1; i < len(st.queue); i++ {
		if st.better(st.queue[i], st.queue[best]) {
			best = i
		}
	}
	idx := st.queue[best]
	st.queue = append(st.queue[:best], st.queue[best+1:]...)
	return idx
}

func (st *searchState) better(a, b int) bool {
	ca, cb := st.steps[a].Clause, st.steps[b].Clause
	if len(ca.Literals) != len(cb.Literals) {
		return len(ca.Literals) < len(cb.Literals)
	}
	if st.size[a] != st.size[b] {
		return st.size[a] < st.size[b]
	}
	return a < b
}

func (st *searchState) result(emptyIdx int) (*Result, error) {
	st.stats.Elapsed = st.now().Sub(st.start)
	proof := extractProof(st.steps, emptyIdx)
	st.stats.ProofLength = len(proof)
	return &Result{Stats: st.stats, Proof: proof}, nil
}

// extractProof walks parents back from the empty clause and renumbers the
// used steps in topological order.
func extractProof(steps []ProofStep, emptyIdx int) []ProofStep {
	needed := map[int]bool{}
	var mark func(int)
	mark = func(i int) {
		if needed[i] {
			return
		}
		needed[i] = true
		for _, p := range steps[i].Parents {
			mark(p)
		}
	}
	mark(emptyIdx)
	idxs := make([]int, 0, len(needed))
	for i := range needed {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	renum := map[int]int{}
	out := make([]ProofStep, 0, len(idxs))
	for newIdx, old := range idxs {
		renum[old] = newIdx
		s := steps[old]
		np := make([]int, len(s.Parents))
		for i, p := range s.Parents {
			np[i] = renum[p]
		}
		out = append(out, ProofStep{Index: newIdx, Clause: s.Clause, Rule: s.Rule, Parents: np, Origin: s.Origin})
	}
	return out
}

// resolve adds the binary resolvents of a and b, which the caller has
// standardized apart (no variable name in common): a is the given clause's
// copy, b the copy of the active clause other. It returns the index of an
// empty resolvent, or -1.
func (st *searchState) resolve(a, b *logic.Clause, given, other int) int {
	for i, la := range a.Literals {
		for j, lb := range b.Literals {
			if la.Negated == lb.Negated {
				continue
			}
			s, ok := logic.UnifyAtoms(la.Atom, lb.Atom, st.subst[:0])
			if !ok {
				continue
			}
			st.subst = s
			st.lits = append(append(st.lits[:0], a.Literals[:i]...), a.Literals[i+1:]...)
			st.lits = append(append(st.lits, b.Literals[:j]...), b.Literals[j+1:]...)
			lits, ok := simplify(st.lits, s)
			if !ok {
				continue
			}
			st.stats.Generated++
			if idx := st.add(lits, s, "resolve", []int{given, other}, "", true); idx >= 0 && len(lits) == 0 {
				return idx
			}
		}
	}
	return -1
}

// factor adds the binary factors of the given clause: for each unifiable
// pair of same-polarity literals, the clause with the pair merged. It
// returns the index of an empty factor, or -1.
func (st *searchState) factor(given int) int {
	c := st.steps[given].Clause
	for i := 0; i < len(c.Literals); i++ {
		for j := i + 1; j < len(c.Literals); j++ {
			li, lj := c.Literals[i], c.Literals[j]
			if li.Negated != lj.Negated {
				continue
			}
			s, ok := logic.UnifyAtoms(li.Atom, lj.Atom, st.subst[:0])
			if !ok {
				continue
			}
			st.subst = s
			st.lits = append(append(st.lits[:0], c.Literals[:j]...), c.Literals[j+1:]...)
			lits, ok := simplify(st.lits, s)
			if !ok {
				continue
			}
			if idx := st.add(lits, s, "factor", []int{given}, "", st.sos[given]); idx >= 0 {
				st.stats.Generated++
				if len(lits) == 0 {
					return idx
				}
			}
		}
	}
	return -1
}

// simplify removes the literals that duplicate an earlier one under s,
// compacting lits in place; ok is false when two literals are
// complementary under s (the clause is a tautology).
func simplify(lits []logic.Literal, s logic.Subst) ([]logic.Literal, bool) {
	out := lits[:0]
	for _, l := range lits {
		dup := false
		for _, m := range out {
			if s.EqualAtoms(l.Atom, m.Atom) {
				if l.Negated != m.Negated {
					return nil, false
				}
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return out, true
}
