package expr

import (
	"fmt"
	"sort"
)

// Expr is a side-effect-free expression over an Env.
type Expr interface {
	// Eval computes the expression value in env.
	Eval(env Env) (Value, error)
	// String renders the expression as source text.
	String() string
	// addVars accumulates free variable names.
	addVars(set map[string]bool)
}

// Op is a unary or binary operator.
type Op int

// Operators. Arithmetic operators apply to integers; comparison operators
// produce booleans; logic operators apply to booleans.
const (
	OpInvalid Op = iota
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
	OpNeg
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||", OpNot: "!", OpNeg: "-",
}

// String returns the operator's source text.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "<invalid-op>"
}

// Lit is a literal value.
type Lit struct{ Val Value }

// Var references a variable by name. Interaction-level expressions use
// qualified names of the form "component.variable".
type Var struct{ Name string }

// Unary applies OpNot or OpNeg to X.
type Unary struct {
	Op Op
	X  Expr
}

// Binary applies a binary operator to X and Y. OpAnd and OpOr
// short-circuit.
type Binary struct {
	Op   Op
	X, Y Expr
}

// Cond is a conditional expression: If ? Then : Else.
type Cond struct {
	If, Then, Else Expr
}

var (
	_ Expr = Lit{}
	_ Expr = Var{}
	_ Expr = Unary{}
	_ Expr = Binary{}
	_ Expr = Cond{}
)

// Convenience constructors. They keep model-building code compact.

// I returns an integer literal.
func I(i int64) Expr { return Lit{Val: IntVal(i)} }

// B returns a boolean literal.
func B(b bool) Expr { return Lit{Val: BoolVal(b)} }

// True is the constant true guard.
var True Expr = Lit{Val: BoolVal(true)}

// V returns a variable reference.
func V(name string) Expr { return Var{Name: name} }

// Add returns x + y.
func Add(x, y Expr) Expr { return Binary{Op: OpAdd, X: x, Y: y} }

// Sub returns x - y.
func Sub(x, y Expr) Expr { return Binary{Op: OpSub, X: x, Y: y} }

// Mul returns x * y.
func Mul(x, y Expr) Expr { return Binary{Op: OpMul, X: x, Y: y} }

// Div returns x / y.
func Div(x, y Expr) Expr { return Binary{Op: OpDiv, X: x, Y: y} }

// Mod returns x % y.
func Mod(x, y Expr) Expr { return Binary{Op: OpMod, X: x, Y: y} }

// Eq returns x == y.
func Eq(x, y Expr) Expr { return Binary{Op: OpEq, X: x, Y: y} }

// Ne returns x != y.
func Ne(x, y Expr) Expr { return Binary{Op: OpNe, X: x, Y: y} }

// Lt returns x < y.
func Lt(x, y Expr) Expr { return Binary{Op: OpLt, X: x, Y: y} }

// Le returns x <= y.
func Le(x, y Expr) Expr { return Binary{Op: OpLe, X: x, Y: y} }

// Gt returns x > y.
func Gt(x, y Expr) Expr { return Binary{Op: OpGt, X: x, Y: y} }

// Ge returns x >= y.
func Ge(x, y Expr) Expr { return Binary{Op: OpGe, X: x, Y: y} }

// And returns x && y.
func And(x, y Expr) Expr { return Binary{Op: OpAnd, X: x, Y: y} }

// Or returns x || y.
func Or(x, y Expr) Expr { return Binary{Op: OpOr, X: x, Y: y} }

// Not returns !x.
func Not(x Expr) Expr { return Unary{Op: OpNot, X: x} }

// Neg returns -x.
func Neg(x Expr) Expr { return Unary{Op: OpNeg, X: x} }

// If returns the conditional expression cond ? then : els.
func If(cond, then, els Expr) Expr { return Cond{If: cond, Then: then, Else: els} }

// Eval implements Expr.
func (e Lit) Eval(Env) (Value, error) { return e.Val, nil }

// String implements Expr.
func (e Lit) String() string { return e.Val.String() }

func (e Lit) addVars(map[string]bool) {}

// Eval implements Expr.
func (e Var) Eval(env Env) (Value, error) {
	v, ok := env.Get(e.Name)
	if !ok {
		return Value{}, evalErr(e, "undefined variable %q", e.Name)
	}
	return v, nil
}

// String implements Expr.
func (e Var) String() string { return e.Name }

func (e Var) addVars(set map[string]bool) { set[e.Name] = true }

// Eval implements Expr.
func (e Unary) Eval(env Env) (Value, error) {
	x, err := e.X.Eval(env)
	if err != nil {
		return Value{}, err
	}
	switch e.Op {
	case OpNot:
		b, ok := x.Bool()
		if !ok {
			return Value{}, evalErr(e, "operator ! needs bool, got %s", x.Kind())
		}
		return BoolVal(!b), nil
	case OpNeg:
		i, ok := x.Int()
		if !ok {
			return Value{}, evalErr(e, "operator - needs int, got %s", x.Kind())
		}
		return IntVal(-i), nil
	default:
		return Value{}, evalErr(e, "invalid unary operator %v", e.Op)
	}
}

// String implements Expr.
func (e Unary) String() string { return e.Op.String() + parens(e.X) }

func (e Unary) addVars(set map[string]bool) { e.X.addVars(set) }

// Eval implements Expr.
func (e Binary) Eval(env Env) (Value, error) {
	x, err := e.X.Eval(env)
	if err != nil {
		return Value{}, err
	}
	// Short-circuit logic operators.
	if e.Op == OpAnd || e.Op == OpOr {
		xb, ok := x.Bool()
		if !ok {
			return Value{}, evalErr(e, "operator %v needs bool operands, got %s", e.Op, x.Kind())
		}
		if e.Op == OpAnd && !xb {
			return BoolVal(false), nil
		}
		if e.Op == OpOr && xb {
			return BoolVal(true), nil
		}
		y, err := e.Y.Eval(env)
		if err != nil {
			return Value{}, err
		}
		yb, ok := y.Bool()
		if !ok {
			return Value{}, evalErr(e, "operator %v needs bool operands, got %s", e.Op, y.Kind())
		}
		return BoolVal(yb), nil
	}

	y, err := e.Y.Eval(env)
	if err != nil {
		return Value{}, err
	}

	switch e.Op {
	case OpEq:
		return BoolVal(x.Equal(y)), nil
	case OpNe:
		return BoolVal(!x.Equal(y)), nil
	}

	xi, xok := x.Int()
	yi, yok := y.Int()
	if !xok || !yok {
		return Value{}, evalErr(e, "operator %v needs int operands, got %s and %s", e.Op, x.Kind(), y.Kind())
	}
	switch e.Op {
	case OpAdd:
		return IntVal(xi + yi), nil
	case OpSub:
		return IntVal(xi - yi), nil
	case OpMul:
		return IntVal(xi * yi), nil
	case OpDiv:
		if yi == 0 {
			return Value{}, evalErr(e, "division by zero")
		}
		return IntVal(xi / yi), nil
	case OpMod:
		if yi == 0 {
			return Value{}, evalErr(e, "modulo by zero")
		}
		return IntVal(xi % yi), nil
	case OpLt:
		return BoolVal(xi < yi), nil
	case OpLe:
		return BoolVal(xi <= yi), nil
	case OpGt:
		return BoolVal(xi > yi), nil
	case OpGe:
		return BoolVal(xi >= yi), nil
	default:
		return Value{}, evalErr(e, "invalid binary operator %v", e.Op)
	}
}

// String implements Expr.
func (e Binary) String() string {
	return parens(e.X) + " " + e.Op.String() + " " + parens(e.Y)
}

func (e Binary) addVars(set map[string]bool) {
	e.X.addVars(set)
	e.Y.addVars(set)
}

// Eval implements Expr.
func (e Cond) Eval(env Env) (Value, error) {
	c, err := e.If.Eval(env)
	if err != nil {
		return Value{}, err
	}
	b, ok := c.Bool()
	if !ok {
		return Value{}, evalErr(e, "condition needs bool, got %s", c.Kind())
	}
	if b {
		return e.Then.Eval(env)
	}
	return e.Else.Eval(env)
}

// String implements Expr.
func (e Cond) String() string {
	return parens(e.If) + " ? " + parens(e.Then) + " : " + parens(e.Else)
}

func (e Cond) addVars(set map[string]bool) {
	e.If.addVars(set)
	e.Then.addVars(set)
	e.Else.addVars(set)
}

func parens(e Expr) string {
	switch e.(type) {
	case Lit, Var:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// Vars returns the sorted free variable names of an expression. A nil
// expression has no variables.
func Vars(e Expr) []string {
	if e == nil {
		return nil
	}
	set := make(map[string]bool)
	e.addVars(set)
	return sortedKeys(set)
}

// EvalBool evaluates e as a boolean guard. A nil expression is the
// constant true guard.
func EvalBool(e Expr, env Env) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(env)
	if err != nil {
		return false, err
	}
	b, ok := v.Bool()
	if !ok {
		return false, fmt.Errorf("guard %s: needs bool, got %s", e, v.Kind())
	}
	return b, nil
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// AndAll conjoins a list of guards, treating nil guards as true. It
// returns nil when every guard is nil.
func AndAll(es ...Expr) Expr {
	var acc Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if acc == nil {
			acc = e
		} else {
			acc = And(acc, e)
		}
	}
	return acc
}

// Rename returns a copy of e with variables renamed through f. It is used
// when flattening hierarchical components and when refining interactions,
// where variable scopes get re-qualified.
func Rename(e Expr, f func(string) string) Expr {
	switch t := e.(type) {
	case nil:
		return nil
	case Lit:
		return t
	case Var:
		return Var{Name: f(t.Name)}
	case Unary:
		return Unary{Op: t.Op, X: Rename(t.X, f)}
	case Binary:
		return Binary{Op: t.Op, X: Rename(t.X, f), Y: Rename(t.Y, f)}
	case Cond:
		return Cond{If: Rename(t.If, f), Then: Rename(t.Then, f), Else: Rename(t.Else, f)}
	default:
		// Unknown node types cannot be renamed; return as-is so the
		// caller's validation catches the unexpected shape.
		return e
	}
}
