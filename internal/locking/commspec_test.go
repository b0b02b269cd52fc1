package locking

import (
	"slices"
	"testing"

	"speccat/internal/analysis/commcheck"
)

// classNames are the commutativity classes of the five modes, in
// declaration order (Mode.String doubles as the class name).
func classNames() []string {
	var out []string
	for _, m := range Modes() {
		out = append(out, m.String())
	}
	return out
}

// TestMatrixMatchesDischargedSpec pins the Go compatibility matrix
// byte-for-byte against the matrix re-derived from the embedded
// commutativity spec: Compatible(a, b) must hold exactly when comm.sw
// contains a prover-discharged Safe theorem for the pair. Deriving runs
// the real resolution prover, so this test also fails if any obligation
// stops discharging.
func TestMatrixMatchesDischargedSpec(t *testing.T) {
	d, err := commcheck.Derive(CommSpec, classNames())
	if err != nil {
		t.Fatalf("Derive(CommSpec) = %v", err)
	}
	if d.Proofs != 4 {
		t.Errorf("discharged proofs = %d, want 4", d.Proofs)
	}
	for _, a := range Modes() {
		for _, b := range Modes() {
			got := Compatible(a, b)
			want := d.Compatible[a.String()][b.String()]
			if got != want {
				t.Errorf("Compatible(%s, %s) = %v, but discharged spec says %v", a, b, got, want)
			}
		}
	}
}

// TestCompatibleSymmetric pins symmetry of the matrix: lock
// compatibility has no order, so compat[a][b] must equal compat[b][a].
func TestCompatibleSymmetric(t *testing.T) {
	for _, a := range Modes() {
		for _, b := range Modes() {
			if Compatible(a, b) != Compatible(b, a) {
				t.Errorf("Compatible(%s, %s) = %v but Compatible(%s, %s) = %v", a, b, Compatible(a, b), b, a, Compatible(b, a))
			}
		}
	}
}

// TestWriteConflictsWithEverything pins the exclusive row: Write has no
// commutativity argument with any class (itself included), so it must
// conflict with every mode.
func TestWriteConflictsWithEverything(t *testing.T) {
	for _, m := range Modes() {
		if Compatible(Write, m) || Compatible(m, Write) {
			t.Errorf("Write must conflict with %s", m)
		}
	}
}

// TestJoinCoversBoth pins the upgrade lattice: the join of two modes
// must cover both (Covers is reflexive-or-Write), and joining distinct
// non-zero modes that are not equal escalates to Write.
func TestJoinCoversBoth(t *testing.T) {
	for _, a := range Modes() {
		for _, b := range Modes() {
			j := Join(a, b)
			if !Covers(j, a) || !Covers(j, b) {
				t.Errorf("Join(%s, %s) = %s does not cover both operands", a, b, j)
			}
			if a != b && j != Write {
				t.Errorf("Join(%s, %s) = %s, want write for mixed modes", a, b, j)
			}
		}
	}
}

// TestCommutingModesShare pins the diagonal of the derived matrix at the
// manager level: two transactions in the same commuting class hold one
// object concurrently, and a third in any different class is refused.
func TestCommutingModesShare(t *testing.T) {
	for _, m := range []Mode{Read, IncMode, AppendMode, SetInsMode} {
		t.Run(m.String(), func(t *testing.T) {
			mgr := NewManager()
			for _, txn := range []string{"t1", "t2"} {
				if granted, err := mgr.Acquire(txn, "x", m, nil); !granted || err != nil {
					t.Fatalf("%s %s x: granted=%v err=%v, want shared grant", txn, m, granted, err)
				}
			}
			if granted, err := mgr.Acquire("t3", "x", Write, nil); granted || err != nil {
				t.Fatalf("t3 write x: granted=%v err=%v, want refused", granted, err)
			}
			if got := mgr.Holders("x"); !slices.Equal(got, []string{"t1", "t2"}) {
				t.Fatalf("Holders(x) = %v after the refusal, want t1 and t2", got)
			}
		})
	}
}

// TestDistinctUpdateClassesConflict pins the off-diagonal: increments do
// not commute with appends (or any other distinct class), so the manager
// must refuse the second class even though both are "weaker than write".
func TestDistinctUpdateClassesConflict(t *testing.T) {
	pairs := [][2]Mode{
		{IncMode, AppendMode},
		{IncMode, SetInsMode},
		{AppendMode, SetInsMode},
		{Read, IncMode},
		{Read, AppendMode},
		{Read, SetInsMode},
	}
	for _, p := range pairs {
		t.Run(p[0].String()+"/"+p[1].String(), func(t *testing.T) {
			mgr := NewManager()
			if granted, _ := mgr.Acquire("t1", "x", p[0], nil); !granted {
				t.Fatalf("t1 %s x not granted on free object", p[0])
			}
			if granted, err := mgr.Acquire("t2", "x", p[1], nil); granted || err != nil {
				t.Fatalf("t2 %s x: granted=%v err=%v, want refused beside %s", p[1], granted, err, p[0])
			}
		})
	}
}
