package expr

import (
	"maps"
	"math/rand"
	"strings"
	"testing"
)

func mustLayout(t *testing.T, names ...string) *Layout {
	t.Helper()
	l, err := NewLayout(names)
	if err != nil {
		t.Fatalf("NewLayout(%v): %v", names, err)
	}
	return l
}

func TestLayout(t *testing.T) {
	l := mustLayout(t, "x", "y")
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if i, ok := l.Slot("y"); !ok || i != 1 {
		t.Fatalf("Slot(y) = %d,%v", i, ok)
	}
	if _, ok := l.Slot("z"); ok {
		t.Fatal("Slot(z) should not exist")
	}
	if _, err := NewLayout([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate names should be rejected")
	}
}

func TestCompileExprUnknownVar(t *testing.T) {
	l := mustLayout(t, "x")
	if _, err := CompileExpr(V("nope"), l); err == nil {
		t.Fatal("compiling an unknown variable should fail")
	}
	if _, err := CompileStmt(Set("nope", I(1)), l); err == nil {
		t.Fatal("compiling an assignment to an unknown variable should fail")
	}
}

// frameOf builds the frame for env in layout order.
func frameOf(l *Layout, env MapEnv) []Value {
	vals := make([]Value, l.Len())
	for i, n := range l.Names() {
		vals[i] = env[n]
	}
	return vals
}

// randExpr builds a random expression over int vars x,y and bool vars
// p,q, loosely typed so that runtime type errors are also exercised.
func randExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch rng.Intn(5) {
		case 0:
			return I(int64(rng.Intn(7) - 3))
		case 1:
			return B(rng.Intn(2) == 0)
		case 2:
			return V("x")
		case 3:
			return V("y")
		default:
			return V("p")
		}
	}
	switch rng.Intn(10) {
	case 0:
		return Not(randExpr(rng, depth-1))
	case 1:
		return Neg(randExpr(rng, depth-1))
	case 2:
		return If(randExpr(rng, depth-1), randExpr(rng, depth-1), randExpr(rng, depth-1))
	default:
		ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr}
		return Binary{Op: ops[rng.Intn(len(ops))], X: randExpr(rng, depth-1), Y: randExpr(rng, depth-1)}
	}
}

func randStmt(rng *rand.Rand, depth int) Stmt {
	if depth <= 0 {
		name := "x"
		if rng.Intn(2) == 0 {
			name = "y"
		}
		return Set(name, randExpr(rng, 1))
	}
	switch rng.Intn(4) {
	case 0:
		return Do(randStmt(rng, depth-1), randStmt(rng, depth-1))
	case 1:
		return When(randExpr(rng, 1), randStmt(rng, depth-1), randStmt(rng, depth-1))
	case 2:
		return Repeat{Times: rng.Intn(4), Body: randStmt(rng, depth-1)}
	default:
		return Set("x", randExpr(rng, depth))
	}
}

// TestCompiledAgreesWithInterpreter is the compiler's semantic oracle:
// on random expressions and statements, compiled execution over a frame
// must produce exactly the interpreter's results over the equivalent
// MapEnv — same values, same final stores, and errors on the same inputs.
func TestCompiledAgreesWithInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := mustLayout(t, "x", "y", "p", "q")
	for i := 0; i < 3000; i++ {
		env := MapEnv{
			"x": IntVal(int64(rng.Intn(9) - 4)),
			"y": IntVal(int64(rng.Intn(9) - 4)),
			"p": BoolVal(rng.Intn(2) == 0),
			"q": BoolVal(rng.Intn(2) == 0),
		}
		e := randExpr(rng, rng.Intn(4))
		ce, err := CompileExpr(e, l)
		if err != nil {
			t.Fatalf("CompileExpr(%s): %v", e, err)
		}
		wantV, wantErr := e.Eval(env)
		gotV, gotErr := ce(frameOf(l, env))
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("expr %s: interpreter err=%v, compiled err=%v", e, wantErr, gotErr)
		}
		if wantErr == nil && !wantV.Equal(gotV) {
			t.Fatalf("expr %s: interpreter %s, compiled %s", e, wantV, gotV)
		}

		s := randStmt(rng, rng.Intn(3))
		cs, err := CompileStmt(s, l)
		if err != nil {
			t.Fatalf("CompileStmt(%s): %v", s, err)
		}
		ienv := maps.Clone(env)
		frame := frameOf(l, env)
		serr := s.Exec(ienv)
		cerr := cs(frame)
		if (serr == nil) != (cerr == nil) {
			t.Fatalf("stmt %s: interpreter err=%v, compiled err=%v", s, serr, cerr)
		}
		if serr == nil {
			for si, n := range l.Names() {
				if !ienv[n].Equal(frame[si]) {
					t.Fatalf("stmt %s: var %s: interpreter %s, compiled %s", s, n, ienv[n], frame[si])
				}
			}
		}
	}
}

func TestCompileBoolNilGuard(t *testing.T) {
	l := mustLayout(t, "x")
	g, err := CompileBool(nil, l)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := g([]Value{IntVal(0)})
	if err != nil || !ok {
		t.Fatalf("nil guard = %v,%v; want true,nil", ok, err)
	}
	bad, err := CompileBool(Add(V("x"), I(1)), l)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad([]Value{IntVal(0)}); err == nil || !strings.Contains(err.Error(), "bool") {
		t.Fatalf("int-valued guard error = %v, want bool type error", err)
	}
}

func TestCompiledRepeat(t *testing.T) {
	l := mustLayout(t, "x")
	cs, err := CompileStmt(Repeat{Times: 1000, Body: Set("x", Add(V("x"), I(1)))}, l)
	if err != nil {
		t.Fatal(err)
	}
	frame := []Value{IntVal(0)}
	if err := cs(frame); err != nil {
		t.Fatal(err)
	}
	if got, _ := frame[0].Int(); got != 1000 {
		t.Fatalf("x = %d, want 1000", got)
	}
}

func TestValueAppendText(t *testing.T) {
	for _, v := range []Value{IntVal(-42), IntVal(0), BoolVal(true), BoolVal(false), {}} {
		if got := string(v.AppendText(nil)); got != v.String() {
			t.Fatalf("AppendText = %q, String = %q", got, v.String())
		}
	}
}

func BenchmarkInterpretedRepeat(b *testing.B) {
	s := Repeat{Times: 1000, Body: Set("x", Add(V("x"), I(1)))}
	env := MapEnv{"x": IntVal(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Exec(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompiledRepeat(b *testing.B) {
	l, _ := NewLayout([]string{"x"})
	cs, err := CompileStmt(Repeat{Times: 1000, Body: Set("x", Add(V("x"), I(1)))}, l)
	if err != nil {
		b.Fatal(err)
	}
	frame := []Value{IntVal(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cs(frame); err != nil {
			b.Fatal(err)
		}
	}
}
