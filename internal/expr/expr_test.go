package expr

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	iv := IntVal(42)
	if iv.Kind() != KindInt {
		t.Fatalf("IntVal kind = %v, want int", iv.Kind())
	}
	if got, ok := iv.Int(); !ok || got != 42 {
		t.Fatalf("Int() = %d,%v want 42,true", got, ok)
	}
	if _, ok := iv.Bool(); ok {
		t.Fatal("IntVal should not report a bool payload")
	}

	bv := BoolVal(true)
	if bv.Kind() != KindBool {
		t.Fatalf("BoolVal kind = %v, want bool", bv.Kind())
	}
	if got, ok := bv.Bool(); !ok || !got {
		t.Fatalf("Bool() = %v,%v want true,true", got, ok)
	}

	var zero Value
	if zero.Kind() != KindInvalid {
		t.Fatalf("zero Value kind = %v, want invalid", zero.Kind())
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		a, b Value
		want bool
	}{
		{IntVal(1), IntVal(1), true},
		{IntVal(1), IntVal(2), false},
		{BoolVal(true), BoolVal(true), true},
		{BoolVal(true), BoolVal(false), false},
		{IntVal(1), BoolVal(true), false},
		{IntVal(0), BoolVal(false), false},
	}
	for _, tt := range tests {
		if got := tt.a.Equal(tt.b); got != tt.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestEval(t *testing.T) {
	env := MapEnv{"x": IntVal(10), "y": IntVal(3), "p": BoolVal(true), "q": BoolVal(false)}
	tests := []struct {
		name string
		e    Expr
		want Value
	}{
		{"lit-int", I(7), IntVal(7)},
		{"lit-bool", B(false), BoolVal(false)},
		{"var", V("x"), IntVal(10)},
		{"add", Add(V("x"), V("y")), IntVal(13)},
		{"sub", Sub(V("x"), V("y")), IntVal(7)},
		{"mul", Mul(V("x"), V("y")), IntVal(30)},
		{"div", Div(V("x"), V("y")), IntVal(3)},
		{"mod", Mod(V("x"), V("y")), IntVal(1)},
		{"neg", Neg(V("x")), IntVal(-10)},
		{"eq-true", Eq(V("x"), I(10)), BoolVal(true)},
		{"eq-false", Eq(V("x"), V("y")), BoolVal(false)},
		{"eq-mixed-kind", Eq(V("x"), V("p")), BoolVal(false)},
		{"ne", Ne(V("x"), V("y")), BoolVal(true)},
		{"lt", Lt(V("y"), V("x")), BoolVal(true)},
		{"le", Le(V("x"), V("x")), BoolVal(true)},
		{"gt", Gt(V("x"), V("y")), BoolVal(true)},
		{"ge", Ge(V("y"), V("x")), BoolVal(false)},
		{"and", And(V("p"), Not(V("q"))), BoolVal(true)},
		{"or", Or(V("q"), V("p")), BoolVal(true)},
		{"not", Not(V("p")), BoolVal(false)},
		{"cond-then", If(V("p"), I(1), I(2)), IntVal(1)},
		{"cond-else", If(V("q"), I(1), I(2)), IntVal(2)},
		{"nested", Add(Mul(V("x"), I(2)), If(V("p"), V("y"), I(0))), IntVal(23)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.e.Eval(env)
			if err != nil {
				t.Fatalf("Eval(%s) error: %v", tt.e, err)
			}
			if !got.Equal(tt.want) {
				t.Fatalf("Eval(%s) = %v, want %v", tt.e, got, tt.want)
			}
		})
	}
}

func TestEvalErrors(t *testing.T) {
	env := MapEnv{"x": IntVal(10), "p": BoolVal(true)}
	tests := []struct {
		name string
		e    Expr
		want string // substring of the error
	}{
		{"undefined", V("nope"), "undefined variable"},
		{"div-zero", Div(V("x"), I(0)), "division by zero"},
		{"mod-zero", Mod(V("x"), I(0)), "modulo by zero"},
		{"not-int", Not(V("x")), "needs bool"},
		{"neg-bool", Neg(V("p")), "needs int"},
		{"add-bool", Add(V("p"), I(1)), "needs int operands"},
		{"and-int", And(V("x"), B(true)), "needs bool operands"},
		{"and-int-rhs", And(B(true), V("x")), "needs bool operands"},
		{"cond-int", If(V("x"), I(1), I(2)), "needs bool"},
		{"lt-bool", Lt(V("p"), I(1)), "needs int operands"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.e.Eval(env)
			if err == nil {
				t.Fatalf("Eval(%s) succeeded, want error containing %q", tt.e, tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("Eval(%s) error = %q, want substring %q", tt.e, err, tt.want)
			}
		})
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand is erroneous (undefined variable); short-circuit
	// evaluation must not touch it.
	env := MapEnv{}
	if got, err := And(B(false), V("boom")).Eval(env); err != nil || !got.Equal(BoolVal(false)) {
		t.Fatalf("false && boom = %v, %v; want false, nil", got, err)
	}
	if got, err := Or(B(true), V("boom")).Eval(env); err != nil || !got.Equal(BoolVal(true)) {
		t.Fatalf("true || boom = %v, %v; want true, nil", got, err)
	}
}

func TestEvalBoolNilGuard(t *testing.T) {
	ok, err := EvalBool(nil, MapEnv{})
	if err != nil || !ok {
		t.Fatalf("EvalBool(nil) = %v, %v; want true, nil", ok, err)
	}
	if _, err := EvalBool(I(3), MapEnv{}); err == nil {
		t.Fatal("EvalBool(int expr) should fail")
	}
}

func TestVars(t *testing.T) {
	e := Add(V("b"), Mul(V("a"), If(V("c"), V("a"), I(0))))
	got := Vars(e)
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
	if Vars(nil) != nil {
		t.Fatal("Vars(nil) should be nil")
	}
}

func TestStmts(t *testing.T) {
	env := MapEnv{"x": IntVal(1), "y": IntVal(0), "p": BoolVal(true)}
	prog := Do(
		Set("y", Add(V("x"), I(4))),
		When(V("p"), Set("x", Mul(V("y"), I(2))), nil),
		Repeat{Times: 3, Body: Set("x", Add(V("x"), I(1)))},
	)
	if err := prog.Exec(env); err != nil {
		t.Fatalf("Exec error: %v", err)
	}
	if v, _ := env.Get("y"); !v.Equal(IntVal(5)) {
		t.Fatalf("y = %v, want 5", v)
	}
	if v, _ := env.Get("x"); !v.Equal(IntVal(13)) {
		t.Fatalf("x = %v, want 13 (10 then +3)", v)
	}
}

func TestStmtElseBranch(t *testing.T) {
	env := MapEnv{"x": IntVal(1)}
	s := When(B(false), Set("x", I(10)), Set("x", I(20)))
	if err := s.Exec(env); err != nil {
		t.Fatalf("Exec error: %v", err)
	}
	if v, _ := env.Get("x"); !v.Equal(IntVal(20)) {
		t.Fatalf("x = %v, want 20", v)
	}
	// Nil branches are no-ops.
	if err := When(B(true), nil, nil).Exec(env); err != nil {
		t.Fatalf("nil-then exec: %v", err)
	}
	if err := When(B(false), nil, nil).Exec(env); err != nil {
		t.Fatalf("nil-else exec: %v", err)
	}
}

func TestStmtErrorsPropagate(t *testing.T) {
	env := MapEnv{}
	if err := Set("x", V("missing")).Exec(env); err == nil {
		t.Fatal("assignment of undefined variable should fail")
	}
	if err := Do(Set("a", I(1)), Set("b", V("zzz"))).Exec(env); err == nil {
		t.Fatal("sequence should propagate failure")
	}
	if err := (Repeat{Times: 2, Body: Set("b", V("zzz"))}).Exec(env); err == nil {
		t.Fatal("repeat should propagate failure")
	}
	if err := When(V("zzz"), nil, nil).Exec(env); err == nil {
		t.Fatal("if with bad condition should fail")
	}
}

func TestReadsWrites(t *testing.T) {
	s := Do(
		Set("a", Add(V("b"), V("c"))),
		When(V("d"), Set("e", I(1)), Set("a", V("f"))),
	)
	reads := Reads(s)
	writes := Writes(s)
	wantReads := []string{"b", "c", "d", "f"}
	wantWrites := []string{"a", "e"}
	if strings.Join(reads, ",") != strings.Join(wantReads, ",") {
		t.Fatalf("Reads = %v, want %v", reads, wantReads)
	}
	if strings.Join(writes, ",") != strings.Join(wantWrites, ",") {
		t.Fatalf("Writes = %v, want %v", writes, wantWrites)
	}
}

func TestRename(t *testing.T) {
	f := func(s string) string { return "C." + s }
	e := Rename(Add(V("x"), If(V("p"), V("y"), I(1))), f)
	want := []string{"C.p", "C.x", "C.y"}
	got := Vars(e)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("renamed vars = %v, want %v", got, want)
	}

	s := RenameStmt(Do(Set("x", V("y")), Repeat{Times: 2, Body: Set("z", I(0))}), f)
	if w := Writes(s); strings.Join(w, ",") != "C.x,C.z" {
		t.Fatalf("renamed writes = %v", w)
	}
	if r := Reads(s); strings.Join(r, ",") != "C.y" {
		t.Fatalf("renamed reads = %v", r)
	}
}

func TestAndAll(t *testing.T) {
	if AndAll(nil, nil) != nil {
		t.Fatal("AndAll of nils should be nil")
	}
	env := MapEnv{"a": BoolVal(true), "b": BoolVal(false)}
	g := AndAll(nil, V("a"), nil, V("b"))
	ok, err := EvalBool(g, env)
	if err != nil || ok {
		t.Fatalf("AndAll(a,b) = %v, %v; want false", ok, err)
	}
}

// Property: arithmetic on the expression language agrees with Go arithmetic
// for every pair of operands (wrap-around semantics included).
func TestQuickArithAgreesWithGo(t *testing.T) {
	f := func(a, b int64) bool {
		env := MapEnv{"a": IntVal(a), "b": IntVal(b)}
		checks := []struct {
			e    Expr
			want int64
		}{
			{Add(V("a"), V("b")), a + b},
			{Sub(V("a"), V("b")), a - b},
			{Mul(V("a"), V("b")), a * b},
		}
		for _, c := range checks {
			v, err := c.e.Eval(env)
			if err != nil {
				return false
			}
			if got, _ := v.Int(); got != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: comparison operators form a total order consistent with Go.
func TestQuickComparisons(t *testing.T) {
	f := func(a, b int64) bool {
		env := MapEnv{"a": IntVal(a), "b": IntVal(b)}
		lt, _ := And(Lt(V("a"), V("b")), B(true)).Eval(env)
		le, _ := Le(V("a"), V("b")).Eval(env)
		gt, _ := Gt(V("a"), V("b")).Eval(env)
		ge, _ := Ge(V("a"), V("b")).Eval(env)
		eq, _ := Eq(V("a"), V("b")).Eval(env)
		bLt, _ := lt.Bool()
		bLe, _ := le.Bool()
		bGt, _ := gt.Bool()
		bGe, _ := ge.Bool()
		bEq, _ := eq.Bool()
		if bLt != (a < b) || bLe != (a <= b) || bGt != (a > b) || bGe != (a >= b) || bEq != (a == b) {
			return false
		}
		// Trichotomy: exactly one of <, ==, > holds.
		n := 0
		for _, v := range []bool{bLt, bEq, bGt} {
			if v {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Rename with the identity function preserves evaluation.
func TestQuickRenameIdentity(t *testing.T) {
	f := func(a, b int64) bool {
		e := Add(Mul(V("x"), I(a%1000)), If(Gt(V("x"), V("y")), V("y"), I(b%1000)))
		env := MapEnv{"x": IntVal(a), "y": IntVal(b)}
		r := Rename(e, func(s string) string { return s })
		v1, err1 := e.Eval(env)
		v2, err2 := r.Eval(env)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		return err1 != nil || v1.Equal(v2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	e := And(Lt(V("x"), I(3)), Not(V("p")))
	got := e.String()
	if !strings.Contains(got, "x < 3") || !strings.Contains(got, "!") {
		t.Fatalf("String() = %q, want x < 3 and ! present", got)
	}
	s := Do(Set("x", I(1)), Set("y", V("x")))
	if want := "x := 1; y := x"; s.String() != want {
		t.Fatalf("stmt String() = %q, want %q", s.String(), want)
	}
	r := Repeat{Times: 12, Body: Set("x", I(0))}
	if !strings.Contains(r.String(), "repeat 12") {
		t.Fatalf("repeat String() = %q", r.String())
	}
	if itoa(-45) != "-45" || itoa(0) != "0" {
		t.Fatalf("itoa broken: %q %q", itoa(-45), itoa(0))
	}
}

func TestSlotsClone(t *testing.T) {
	l, err := NewLayout([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	m := Slots{L: l, V: []Value{IntVal(1)}}
	c := m.Clone()
	_ = c.Set("x", IntVal(2))
	if v, _ := m.Get("x"); !v.Equal(IntVal(1)) {
		t.Fatal("Clone must not share storage")
	}
	if c.L != m.L {
		t.Fatal("Clone must keep the layout")
	}
}

// TestSlotsStore pins the name-based view of a slot store: Set rejects
// undeclared names, Equal compares by name across layouts, and AppendKey
// renders variables in name order whatever the slot order.
func TestSlotsStore(t *testing.T) {
	yx, err := NewLayout([]string{"y", "x"})
	if err != nil {
		t.Fatal(err)
	}
	xy, err := NewLayout([]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	a := Slots{L: yx, V: []Value{BoolVal(true), IntVal(3)}}
	b := Slots{L: xy, V: []Value{IntVal(3), BoolVal(true)}}
	if err := a.Set("z", IntVal(0)); err == nil {
		t.Fatal("Set of an undeclared variable must fail")
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("%v and %v bind the same values", a, b)
	}
	if got := string(a.AppendKey(nil)); got != "|x=3|y=true" || got != string(b.AppendKey(nil)) {
		t.Fatalf("AppendKey = %q, want |x=3|y=true for both layouts", got)
	}
	_ = b.Set("x", IntVal(4))
	if a.Equal(b) {
		t.Fatal("stores differing in x compare equal")
	}
	if _, ok := (Slots{}).Get("x"); ok {
		t.Fatal("the zero store binds nothing")
	}
}
