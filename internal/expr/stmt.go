package expr

import (
	"fmt"
	"strings"
)

// Stmt is a statement executed against an Env: transition actions and
// interaction data transfer are statements.
type Stmt interface {
	// Exec runs the statement, mutating env.
	Exec(env Env) error
	// String renders the statement as source text.
	String() string
	// addReads/addWrites accumulate the variables read and written.
	addReads(set map[string]bool)
	addWrites(set map[string]bool)
}

// Assign binds the value of Rhs to variable Name.
type Assign struct {
	Name string
	Rhs  Expr
}

// Seq executes statements in order.
type Seq []Stmt

// IfStmt executes Then when Cond holds, otherwise Else (which may be nil).
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt
}

// Repeat executes Body a fixed number of times. It exists to model
// compute-heavy transition actions in engine benchmarks (the "quantum of
// computation" a component performs in a step).
type Repeat struct {
	Times int
	Body  Stmt
}

var (
	_ Stmt = Assign{}
	_ Stmt = Seq(nil)
	_ Stmt = IfStmt{}
	_ Stmt = Repeat{}
)

// Set returns the assignment name := rhs.
func Set(name string, rhs Expr) Stmt { return Assign{Name: name, Rhs: rhs} }

// Do sequences statements, skipping nils.
func Do(stmts ...Stmt) Stmt {
	out := make(Seq, 0, len(stmts))
	for _, s := range stmts {
		if s != nil {
			out = append(out, s)
		}
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}

// When returns the conditional statement if cond { then } else { els }.
func When(cond Expr, then, els Stmt) Stmt { return IfStmt{Cond: cond, Then: then, Else: els} }

// Exec implements Stmt.
func (s Assign) Exec(env Env) error {
	v, err := s.Rhs.Eval(env)
	if err != nil {
		return err
	}
	return env.Set(s.Name, v)
}

// String implements Stmt.
func (s Assign) String() string { return s.Name + " := " + s.Rhs.String() }

func (s Assign) addReads(set map[string]bool)  { s.Rhs.addVars(set) }
func (s Assign) addWrites(set map[string]bool) { set[s.Name] = true }

// Exec implements Stmt.
func (s Seq) Exec(env Env) error {
	for _, st := range s {
		if err := st.Exec(env); err != nil {
			return err
		}
	}
	return nil
}

// String implements Stmt.
func (s Seq) String() string {
	parts := make([]string, len(s))
	for i, st := range s {
		parts[i] = st.String()
	}
	return strings.Join(parts, "; ")
}

func (s Seq) addReads(set map[string]bool) {
	for _, st := range s {
		st.addReads(set)
	}
}

func (s Seq) addWrites(set map[string]bool) {
	for _, st := range s {
		st.addWrites(set)
	}
}

// Exec implements Stmt.
func (s IfStmt) Exec(env Env) error {
	b, err := EvalBool(s.Cond, env)
	if err != nil {
		return err
	}
	if b {
		if s.Then != nil {
			return s.Then.Exec(env)
		}
		return nil
	}
	if s.Else != nil {
		return s.Else.Exec(env)
	}
	return nil
}

// String implements Stmt.
func (s IfStmt) String() string {
	out := "if " + s.Cond.String() + " { "
	if s.Then != nil {
		out += s.Then.String()
	}
	out += " }"
	if s.Else != nil {
		out += " else { " + s.Else.String() + " }"
	}
	return out
}

func (s IfStmt) addReads(set map[string]bool) {
	s.Cond.addVars(set)
	if s.Then != nil {
		s.Then.addReads(set)
	}
	if s.Else != nil {
		s.Else.addReads(set)
	}
}

func (s IfStmt) addWrites(set map[string]bool) {
	if s.Then != nil {
		s.Then.addWrites(set)
	}
	if s.Else != nil {
		s.Else.addWrites(set)
	}
}

// Exec implements Stmt.
func (s Repeat) Exec(env Env) error {
	for i := 0; i < s.Times; i++ {
		if err := s.Body.Exec(env); err != nil {
			return err
		}
	}
	return nil
}

// String implements Stmt.
func (s Repeat) String() string {
	return "repeat " + itoa(s.Times) + " { " + s.Body.String() + " }"
}

func (s Repeat) addReads(set map[string]bool)  { s.Body.addReads(set) }
func (s Repeat) addWrites(set map[string]bool) { s.Body.addWrites(set) }

// Reads returns the sorted variable names a statement reads. A nil
// statement reads nothing.
func Reads(s Stmt) []string {
	if s == nil {
		return nil
	}
	set := make(map[string]bool)
	s.addReads(set)
	return sortedKeys(set)
}

// Writes returns the sorted variable names a statement writes. A nil
// statement writes nothing.
func Writes(s Stmt) []string {
	if s == nil {
		return nil
	}
	set := make(map[string]bool)
	s.addWrites(set)
	return sortedKeys(set)
}

// RenameStmt returns a copy of s with every variable (read and written)
// renamed through f.
func RenameStmt(s Stmt, f func(string) string) Stmt {
	switch t := s.(type) {
	case nil:
		return nil
	case Assign:
		return Assign{Name: f(t.Name), Rhs: Rename(t.Rhs, f)}
	case Seq:
		out := make(Seq, len(t))
		for i, st := range t {
			out[i] = RenameStmt(st, f)
		}
		return out
	case IfStmt:
		return IfStmt{Cond: Rename(t.Cond, f), Then: RenameStmt(t.Then, f), Else: RenameStmt(t.Else, f)}
	case Repeat:
		return Repeat{Times: t.Times, Body: RenameStmt(t.Body, f)}
	default:
		return s
	}
}

func itoa(i int) string {
	// strconv would pull an import into an otherwise fmt-free file; this
	// tiny helper keeps the statement printer allocation-light.
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}

// CheckKinds reports the first assignment in s whose right-hand side
// does not yield the kind of its target, as kindOf gives it. Every
// operator fixes the kind of its result, so each expression has one
// kind, except a conditional whose branches differ, which no assignment
// accepts. Validation runs it on transition actions and data transfers,
// so a variable keeps its declared kind in every reachable state.
func CheckKinds(s Stmt, kindOf func(name string) Kind) error {
	switch t := s.(type) {
	case Assign:
		if got, want := exprKind(t.Rhs, kindOf), kindOf(t.Name); got != want {
			return fmt.Errorf("%s assigns %s to %s variable %s", t, got, want, t.Name)
		}
	case Seq:
		for _, st := range t {
			if err := CheckKinds(st, kindOf); err != nil {
				return err
			}
		}
	case IfStmt:
		if err := CheckKinds(t.Then, kindOf); err != nil {
			return err
		}
		return CheckKinds(t.Else, kindOf)
	case Repeat:
		return CheckKinds(t.Body, kindOf)
	}
	return nil
}

// exprKind is the kind every successful evaluation of e yields, or
// KindInvalid for a conditional whose branches differ.
func exprKind(e Expr, kindOf func(name string) Kind) Kind {
	switch t := e.(type) {
	case Lit:
		return t.Val.kind
	case Var:
		return kindOf(t.Name)
	case Unary:
		if t.Op == OpNeg {
			return KindInt
		}
	case Binary:
		switch t.Op {
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			return KindInt
		}
	case Cond:
		if k := exprKind(t.Then, kindOf); k == exprKind(t.Else, kindOf) {
			return k
		}
		return KindInvalid
	}
	return KindBool
}
