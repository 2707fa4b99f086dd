package behavior

import (
	"strings"
	"testing"
	"testing/quick"

	"bip/internal/expr"
)

// counter builds a simple two-location counter used across the tests:
// idle --start--> busy (n := n+1), busy --done--> idle when n < max.
func counter(t *testing.T, max int64) *Atom {
	t.Helper()
	a, err := NewBuilder("counter").
		Location("idle", "busy").
		Int("n", 0).
		Port("start", "n").
		Port("done").
		TransitionG("idle", "start", "busy", expr.Lt(expr.V("n"), expr.I(max)),
			expr.Set("n", expr.Add(expr.V("n"), expr.I(1)))).
		Transition("busy", "done", "idle").
		Invariant(expr.Ge(expr.V("n"), expr.I(0))).
		Build()
	if err != nil {
		t.Fatalf("build counter: %v", err)
	}
	return a
}

func TestBuilderBasics(t *testing.T) {
	a := counter(t, 3)
	if a.Initial != "idle" {
		t.Fatalf("initial = %q, want idle (first declared)", a.Initial)
	}
	if !a.HasPort("start") || !a.HasPort("done") || a.HasPort("nope") {
		t.Fatal("HasPort misbehaves")
	}
	if !a.HasLocation("busy") || a.HasLocation("nowhere") {
		t.Fatal("HasLocation misbehaves")
	}
	if !a.HasVar("n") || a.HasVar("m") {
		t.Fatal("HasVar misbehaves")
	}
	p, ok := a.PortByName("start")
	if !ok || len(p.Vars) != 1 || p.Vars[0] != "n" {
		t.Fatalf("PortByName(start) = %+v, %v", p, ok)
	}
	if s := a.String(); !strings.Contains(s, "counter") {
		t.Fatalf("String() = %q", s)
	}
}

func TestBuilderValidation(t *testing.T) {
	tests := []struct {
		name  string
		build func() (*Atom, error)
		want  string
	}{
		{"empty name", func() (*Atom, error) { return NewBuilder("").Location("l").Build() }, "empty name"},
		{"no locations", func() (*Atom, error) { return NewBuilder("a").Build() }, "no locations"},
		{"dup location", func() (*Atom, error) { return NewBuilder("a").Location("l", "l").Build() }, "duplicate location"},
		{"bad initial", func() (*Atom, error) { return NewBuilder("a").Location("l").Initial("x").Build() }, "initial location"},
		{"dup var", func() (*Atom, error) {
			return NewBuilder("a").Location("l").Int("x", 0).Int("x", 1).Build()
		}, "duplicate variable"},
		{"dup port", func() (*Atom, error) {
			return NewBuilder("a").Location("l").Port("p").Port("p").Build()
		}, "duplicate port"},
		{"port exports unknown var", func() (*Atom, error) {
			return NewBuilder("a").Location("l").Port("p", "ghost").Build()
		}, "undeclared variable"},
		{"transition unknown source", func() (*Atom, error) {
			return NewBuilder("a").Location("l").Port("p").Transition("x", "p", "l").Build()
		}, "unknown source"},
		{"transition unknown target", func() (*Atom, error) {
			return NewBuilder("a").Location("l").Port("p").Transition("l", "p", "x").Build()
		}, "unknown target"},
		{"transition unknown port", func() (*Atom, error) {
			return NewBuilder("a").Location("l").Transition("l", "p", "l").Build()
		}, "unknown port"},
		{"guard unknown var", func() (*Atom, error) {
			return NewBuilder("a").Location("l").Port("p").
				TransitionG("l", "p", "l", expr.V("ghost"), nil).Build()
		}, "guard reads undeclared"},
		{"action unknown var", func() (*Atom, error) {
			return NewBuilder("a").Location("l").Port("p").
				TransitionG("l", "p", "l", nil, expr.Set("ghost", expr.I(1))).Build()
		}, "action uses undeclared"},
		{"invariant unknown var", func() (*Atom, error) {
			return NewBuilder("a").Location("l").Invariant(expr.V("ghost")).Build()
		}, "invariant 0 reads undeclared"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.build()
			if err == nil {
				t.Fatalf("Build succeeded, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error = %q, want substring %q", err, tt.want)
			}
		})
	}
}

func TestInitialState(t *testing.T) {
	a := counter(t, 3)
	s := a.InitialState()
	if s.Loc != "idle" {
		t.Fatalf("initial loc = %q", s.Loc)
	}
	if v, _ := s.Vars.Get("n"); !v.Equal(expr.IntVal(0)) {
		t.Fatalf("initial n = %v", v)
	}
}

func TestEnabledAndExec(t *testing.T) {
	a := counter(t, 2)
	s := a.InitialState()

	en, err := a.Enabled(s, "start")
	if err != nil || len(en) != 1 {
		t.Fatalf("Enabled(start) = %v, %v; want one transition", en, err)
	}
	if en2, _ := a.Enabled(s, "done"); len(en2) != 0 {
		t.Fatalf("done should be disabled at idle, got %v", en2)
	}

	s2, err := a.Exec(s, en[0])
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if s2.Loc != "busy" {
		t.Fatalf("loc after start = %q", s2.Loc)
	}
	if v, _ := s2.Vars.Get("n"); !v.Equal(expr.IntVal(1)) {
		t.Fatalf("n after start = %v", v)
	}
	// Original state untouched (persistent states).
	if v, _ := s.Vars.Get("n"); !v.Equal(expr.IntVal(0)) {
		t.Fatal("Exec mutated its input state")
	}

	// Run to the guard bound: after 2 starts, start must be disabled.
	s3, _ := a.Exec(s2, a.TransitionsOn("busy", "done")[0])
	s4, _ := a.Exec(s3, en[0])
	s5, _ := a.Exec(s4, a.TransitionsOn("busy", "done")[0])
	en3, _ := a.Enabled(s5, "start")
	if len(en3) != 0 {
		t.Fatalf("start should be guard-disabled at n=2, got %v", en3)
	}
}

func TestExecErrors(t *testing.T) {
	a := counter(t, 2)
	s := a.InitialState()
	if _, err := a.Exec(s, 99); err == nil {
		t.Fatal("out-of-range index should fail")
	}
	if _, err := a.Exec(s, 1); err == nil {
		t.Fatal("firing from wrong location should fail")
	}
}

func TestEnabledGuardError(t *testing.T) {
	a, err := NewBuilder("bad").
		Location("l").
		Int("x", 0).
		Port("p").
		TransitionG("l", "p", "l", expr.Gt(expr.Div(expr.I(1), expr.V("x")), expr.I(0)), nil).
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := a.Enabled(a.InitialState(), "p"); err == nil {
		t.Fatal("guard with division by zero should surface an error")
	}
}

func TestNondeterministicPort(t *testing.T) {
	// Two transitions on the same port from the same location: both
	// enabled, representing internal non-determinism.
	a, err := NewBuilder("nd").
		Location("l", "a", "b").
		Port("go").
		Transition("l", "go", "a").
		Transition("l", "go", "b").
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	en, err := a.Enabled(a.InitialState(), "go")
	if err != nil || len(en) != 2 {
		t.Fatalf("Enabled = %v, %v; want 2 choices", en, err)
	}
}

func TestRenameAtom(t *testing.T) {
	a := counter(t, 3)
	b := a.Rename("copy")
	if b.Name != "copy" || a.Name != "counter" {
		t.Fatal("Rename should change only the copy's name")
	}
	// Deep copy: mutating the copy's ports must not affect the source.
	b.Ports[0].Vars[0] = "zzz"
	if a.Ports[0].Vars[0] != "n" {
		t.Fatal("Rename shares port storage with the source")
	}
	if !b.HasPort("start") {
		t.Fatal("copy lost its ports index")
	}
}

// abState returns a state of an atom declaring a and b (in that order,
// or reversed when ba is set) at location l, with the given values set.
func abState(t *testing.T, ba bool, l string, a, b expr.Value) State {
	t.Helper()
	bd := NewBuilder("ab").Location("l", "m", "x", "y")
	if ba {
		bd = bd.Bool("b", false).Int("a", 0)
	} else {
		bd = bd.Int("a", 0).Bool("b", false)
	}
	at, err := bd.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := at.InitialState()
	st.Loc = l
	if err := st.Vars.Set("a", a); err != nil {
		t.Fatal(err)
	}
	if err := st.Vars.Set("b", b); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStateKeyAndEqual(t *testing.T) {
	// The two stores are laid out in opposite declaration orders: Key
	// and Equal compare by name, not by slot.
	s1 := abState(t, false, "l", expr.IntVal(1), expr.BoolVal(true))
	s2 := abState(t, true, "l", expr.IntVal(1), expr.BoolVal(true))
	if s1.Key() != s2.Key() {
		t.Fatalf("keys differ for equal states: %q vs %q", s1.Key(), s2.Key())
	}
	if !s1.Equal(s2) {
		t.Fatal("Equal should hold")
	}
	s3 := s1.Clone()
	_ = s3.Vars.Set("a", expr.IntVal(2))
	if s1.Equal(s3) {
		t.Fatal("Equal should fail after divergence")
	}
	if s1.Key() == s3.Key() {
		t.Fatal("keys should differ after divergence")
	}
	s4 := State{Loc: "m", Vars: s1.Vars}
	if s1.Equal(s4) {
		t.Fatal("different locations must not be equal")
	}
}

// Property: Key is injective on (location, bounded valuation) — two states
// compare Equal exactly when their keys match.
func TestQuickStateKeyInjective(t *testing.T) {
	f := func(a1, b1, a2, b2 int8, l1, l2 bool) bool {
		loc := func(b bool) string {
			if b {
				return "x"
			}
			return "y"
		}
		s1 := abState(t, false, loc(l1), expr.IntVal(int64(a1)), expr.IntVal(int64(b1)))
		s2 := abState(t, false, loc(l2), expr.IntVal(int64(a2)), expr.IntVal(int64(b2)))
		return s1.Equal(s2) == (s1.Key() == s2.Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Exec never mutates its input state, for arbitrary increments.
func TestQuickExecPersistent(t *testing.T) {
	a, err := NewBuilder("p").
		Location("l").
		Int("x", 0).
		Port("p", "x").
		TransitionG("l", "p", "l", nil, expr.Set("x", expr.Add(expr.V("x"), expr.I(1)))).
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	f := func(start int32) bool {
		s := a.InitialState()
		_ = s.Vars.Set("x", expr.IntVal(int64(start)))
		before := s.Key()
		next, err := a.Exec(s, 0)
		if err != nil {
			return false
		}
		v, _ := next.Vars.Get("x")
		got, _ := v.Int()
		return s.Key() == before && got == int64(start)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild should panic on invalid atom")
		}
	}()
	NewBuilder("").MustBuild()
}

func TestTransitionString(t *testing.T) {
	tr := Transition{From: "a", To: "b", Port: "p", Guard: expr.Lt(expr.V("x"), expr.I(3)), Action: expr.Set("x", expr.I(0))}
	s := tr.String()
	for _, want := range []string{"a --p--> b", "when", "do"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Transition.String() = %q, missing %q", s, want)
		}
	}
}
