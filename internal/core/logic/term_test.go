package logic

import "testing"

func TestTermString(t *testing.T) {
	tests := []struct {
		name string
		term *Term
		want string
	}{
		{"var", Var("x", "Nat"), "x"},
		{"const", Const("c", "Nat"), "c"},
		{"app", App("f", "Nat", Var("x", "Nat"), Const("c", "Nat")), "f(x, c)"},
		{"nested", App("g", "", App("f", "", Var("x", ""))), "g(f(x))"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.term.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestTermEqual(t *testing.T) {
	a := App("f", "S", Var("x", "S"), Const("c", "S"))
	b := App("f", "S", Var("x", "S"), Const("c", "S"))
	if !a.Equal(b) {
		t.Error("identical terms compare unequal")
	}
	if a.Equal(App("f", "S", Var("x", "S"))) {
		t.Error("different arity compares equal")
	}
	if a.Equal(App("f", "T", Var("x", "S"), Const("c", "S"))) {
		t.Error("different sort compares equal")
	}
	if a.Equal(nil) {
		t.Error("non-nil equals nil")
	}
}

func TestTermCloneIndependence(t *testing.T) {
	a := App("f", "S", Var("x", "S"))
	c := a.Clone()
	c.Args[0].Name = "y"
	if a.Args[0].Name != "x" {
		t.Error("mutating clone mutated original")
	}
}

func TestTermVars(t *testing.T) {
	term := App("f", "", Var("z", ""), App("g", "", Var("a", ""), Var("z", "")), Const("c", ""))
	vars := term.Vars()
	if len(vars) != 2 || vars[0].Name != "a" || vars[1].Name != "z" {
		t.Fatalf("Vars() = %v, want [a z]", vars)
	}
}

func TestTermContainsVar(t *testing.T) {
	term := App("f", "", App("g", "", Var("x", "")))
	if !term.ContainsVar("x") {
		t.Error("ContainsVar(x) = false, want true")
	}
	if term.ContainsVar("y") {
		t.Error("ContainsVar(y) = true, want false")
	}
}

func TestTermRename(t *testing.T) {
	term := App("f", "S", Var("x", "S"), Const("c", "T"))
	got := term.Rename(map[string]string{"f": "F", "c": "C", "sort:S": "S2"})
	if got.Name != "F" || got.Sort != "S2" {
		t.Errorf("renamed head = %s:%s, want F:S2", got.Name, got.Sort)
	}
	if got.Args[0].Name != "x" {
		t.Error("variable name was renamed; only symbols should be")
	}
	if got.Args[0].Sort != "S2" {
		t.Error("variable sort was not renamed")
	}
	if got.Args[1].Name != "C" {
		t.Error("constant was not renamed")
	}
	if term.Name != "f" {
		t.Error("Rename mutated its receiver")
	}
}
