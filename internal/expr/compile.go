package expr

import (
	"fmt"
	"sort"
)

// This file implements slot compilation: expressions and statements are
// translated once, against a fixed variable Layout, into closures that
// operate on a flat []Value frame instead of a name-keyed Env. Hot paths
// (transition guards and actions fired millions of times by the engines)
// pay a slice index per variable access instead of a string hash per map
// operation. The interpreted Eval/Exec paths remain the reference
// semantics; compiled code must agree with them exactly, which
// TestCompiledAgreesWithInterpreter checks exhaustively.

// Layout assigns a frame slot to each variable name. It is immutable
// after construction and safe for concurrent use. A nil *Layout is the
// empty layout.
type Layout struct {
	names []string
	idx   map[string]int
	// sorted lists the slots in name order: the canonical variable order
	// of textual state keys (Slots.AppendKey).
	sorted []int
}

// NewLayout builds a layout over the given names in order. Duplicate
// names are rejected.
func NewLayout(names []string) (*Layout, error) {
	l := &Layout{
		names:  append([]string(nil), names...),
		idx:    make(map[string]int, len(names)),
		sorted: make([]int, len(names)),
	}
	for i, n := range l.names {
		if _, dup := l.idx[n]; dup {
			return nil, fmt.Errorf("layout: duplicate variable %q", n)
		}
		l.idx[n] = i
		l.sorted[i] = i
	}
	sort.Slice(l.sorted, func(a, b int) bool { return l.names[l.sorted[a]] < l.names[l.sorted[b]] })
	return l, nil
}

// Slot returns the frame index of name.
func (l *Layout) Slot(name string) (int, bool) {
	if l == nil {
		return 0, false
	}
	i, ok := l.idx[name]
	return i, ok
}

// Len returns the frame size.
func (l *Layout) Len() int {
	if l == nil {
		return 0
	}
	return len(l.names)
}

// Names returns the variable names in slot order. The caller must not
// mutate the result.
func (l *Layout) Names() []string {
	if l == nil {
		return nil
	}
	return l.names
}

// CompiledExpr evaluates an expression over a frame of values laid out by
// the Layout it was compiled against.
type CompiledExpr func(vals []Value) (Value, error)

// CompiledStmt executes a statement over a frame, mutating it in place.
type CompiledStmt func(vals []Value) error

// CompiledBool evaluates a guard over a frame.
type CompiledBool func(vals []Value) (bool, error)

// CompileExpr translates e into a closure over l's frame. Every free
// variable of e must have a slot in l.
func CompileExpr(e Expr, l *Layout) (CompiledExpr, error) {
	switch t := e.(type) {
	case Lit:
		v := t.Val
		return func([]Value) (Value, error) { return v, nil }, nil
	case Var:
		slot, ok := l.Slot(t.Name)
		if !ok {
			return nil, fmt.Errorf("compile %s: variable %q has no slot", e, t.Name)
		}
		return func(vals []Value) (Value, error) { return vals[slot], nil }, nil
	case Unary:
		return compileUnary(t, l)
	case Binary:
		return compileBinary(t, l)
	case Cond:
		cif, err := CompileExpr(t.If, l)
		if err != nil {
			return nil, err
		}
		cthen, err := CompileExpr(t.Then, l)
		if err != nil {
			return nil, err
		}
		celse, err := CompileExpr(t.Else, l)
		if err != nil {
			return nil, err
		}
		src := t
		return func(vals []Value) (Value, error) {
			c, err := cif(vals)
			if err != nil {
				return Value{}, err
			}
			b, ok := c.Bool()
			if !ok {
				return Value{}, evalErr(src, "condition needs bool, got %s", c.Kind())
			}
			if b {
				return cthen(vals)
			}
			return celse(vals)
		}, nil
	default:
		return nil, fmt.Errorf("compile: unsupported expression %T", e)
	}
}

func compileUnary(t Unary, l *Layout) (CompiledExpr, error) {
	cx, err := CompileExpr(t.X, l)
	if err != nil {
		return nil, err
	}
	switch t.Op {
	case OpNot:
		return func(vals []Value) (Value, error) {
			x, err := cx(vals)
			if err != nil {
				return Value{}, err
			}
			b, ok := x.Bool()
			if !ok {
				return Value{}, evalErr(t, "operator ! needs bool, got %s", x.Kind())
			}
			return BoolVal(!b), nil
		}, nil
	case OpNeg:
		return func(vals []Value) (Value, error) {
			x, err := cx(vals)
			if err != nil {
				return Value{}, err
			}
			i, ok := x.Int()
			if !ok {
				return Value{}, evalErr(t, "operator - needs int, got %s", x.Kind())
			}
			return IntVal(-i), nil
		}, nil
	default:
		return nil, evalErr(t, "invalid unary operator %v", t.Op)
	}
}

func compileBinary(t Binary, l *Layout) (CompiledExpr, error) {
	cx, err := CompileExpr(t.X, l)
	if err != nil {
		return nil, err
	}
	cy, err := CompileExpr(t.Y, l)
	if err != nil {
		return nil, err
	}
	switch t.Op {
	case OpAnd, OpOr:
		isAnd := t.Op == OpAnd
		return func(vals []Value) (Value, error) {
			x, err := cx(vals)
			if err != nil {
				return Value{}, err
			}
			xb, ok := x.Bool()
			if !ok {
				return Value{}, evalErr(t, "operator %v needs bool operands, got %s", t.Op, x.Kind())
			}
			// Short-circuit exactly like the interpreter.
			if isAnd && !xb {
				return BoolVal(false), nil
			}
			if !isAnd && xb {
				return BoolVal(true), nil
			}
			y, err := cy(vals)
			if err != nil {
				return Value{}, err
			}
			yb, ok := y.Bool()
			if !ok {
				return Value{}, evalErr(t, "operator %v needs bool operands, got %s", t.Op, y.Kind())
			}
			return BoolVal(yb), nil
		}, nil
	case OpEq, OpNe:
		isEq := t.Op == OpEq
		return func(vals []Value) (Value, error) {
			x, err := cx(vals)
			if err != nil {
				return Value{}, err
			}
			y, err := cy(vals)
			if err != nil {
				return Value{}, err
			}
			return BoolVal(x.Equal(y) == isEq), nil
		}, nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpLt, OpLe, OpGt, OpGe:
		op := t.Op
		// When both operands are plain variables or literals, skip their
		// per-node closures entirely: fetch straight from the frame. This
		// is the shape of virtually every guard and update in practice.
		if ox, oy, ok := directOperands(t, l); ok {
			return func(vals []Value) (Value, error) {
				return applyIntOp(op, ox.fetch(vals), oy.fetch(vals), t)
			}, nil
		}
		return func(vals []Value) (Value, error) {
			x, err := cx(vals)
			if err != nil {
				return Value{}, err
			}
			y, err := cy(vals)
			if err != nil {
				return Value{}, err
			}
			return applyIntOp(op, x, y, t)
		}, nil
	default:
		return nil, evalErr(t, "invalid binary operator %v", t.Op)
	}
}

func isIntOp(op Op) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// operand is a pre-resolved leaf: either a frame slot or a constant.
type operand struct {
	slot   int
	k      Value
	isSlot bool
}

func (o operand) fetch(vals []Value) Value {
	if o.isSlot {
		return vals[o.slot]
	}
	return o.k
}

// operandOf resolves Var and Lit leaves; anything else needs a closure.
func operandOf(e Expr, l *Layout) (operand, bool) {
	switch t := e.(type) {
	case Lit:
		return operand{k: t.Val}, true
	case Var:
		if slot, ok := l.Slot(t.Name); ok {
			return operand{slot: slot, isSlot: true}, true
		}
	}
	return operand{}, false
}

func directOperands(t Binary, l *Layout) (operand, operand, bool) {
	ox, okx := operandOf(t.X, l)
	if !okx {
		return operand{}, operand{}, false
	}
	oy, oky := operandOf(t.Y, l)
	return ox, oy, oky
}

// applyIntOp evaluates an arithmetic or comparison operator with the
// interpreter's exact typing and error behaviour.
func applyIntOp(op Op, x, y Value, src Binary) (Value, error) {
	if x.kind != KindInt || y.kind != KindInt {
		return Value{}, evalErr(src, "operator %v needs int operands, got %s and %s", op, x.Kind(), y.Kind())
	}
	xi, yi := x.i, y.i
	switch op {
	case OpAdd:
		return IntVal(xi + yi), nil
	case OpSub:
		return IntVal(xi - yi), nil
	case OpMul:
		return IntVal(xi * yi), nil
	case OpDiv:
		if yi == 0 {
			return Value{}, evalErr(src, "division by zero")
		}
		return IntVal(xi / yi), nil
	case OpMod:
		if yi == 0 {
			return Value{}, evalErr(src, "modulo by zero")
		}
		return IntVal(xi % yi), nil
	case OpLt:
		return BoolVal(xi < yi), nil
	case OpLe:
		return BoolVal(xi <= yi), nil
	case OpGt:
		return BoolVal(xi > yi), nil
	default:
		return BoolVal(xi >= yi), nil
	}
}

// CompileBool translates a guard. A nil guard compiles to constant true.
func CompileBool(e Expr, l *Layout) (CompiledBool, error) {
	if e == nil {
		return func([]Value) (bool, error) { return true, nil }, nil
	}
	ce, err := CompileExpr(e, l)
	if err != nil {
		return nil, err
	}
	return func(vals []Value) (bool, error) {
		v, err := ce(vals)
		if err != nil {
			return false, err
		}
		b, ok := v.Bool()
		if !ok {
			return false, fmt.Errorf("guard %s: needs bool, got %s", e, v.Kind())
		}
		return b, nil
	}, nil
}

// CompileStmt translates s into a closure over l's frame. A nil statement
// compiles to a no-op. Every variable s reads or writes must have a slot.
func CompileStmt(s Stmt, l *Layout) (CompiledStmt, error) {
	switch t := s.(type) {
	case nil:
		return func([]Value) error { return nil }, nil
	case Assign:
		slot, ok := l.Slot(t.Name)
		if !ok {
			return nil, fmt.Errorf("compile %s: variable %q has no slot", s, t.Name)
		}
		// Fuse "d := x op y" over direct operands into one closure — the
		// inner loop of every compute-heavy transition action.
		if bin, isBin := t.Rhs.(Binary); isBin && isIntOp(bin.Op) {
			if ox, oy, ok := directOperands(bin, l); ok {
				op := bin.Op
				return func(vals []Value) error {
					v, err := applyIntOp(op, ox.fetch(vals), oy.fetch(vals), bin)
					if err != nil {
						return err
					}
					vals[slot] = v
					return nil
				}, nil
			}
		}
		rhs, err := CompileExpr(t.Rhs, l)
		if err != nil {
			return nil, err
		}
		return func(vals []Value) error {
			v, err := rhs(vals)
			if err != nil {
				return err
			}
			vals[slot] = v
			return nil
		}, nil
	case Seq:
		body := make([]CompiledStmt, len(t))
		for i, st := range t {
			c, err := CompileStmt(st, l)
			if err != nil {
				return nil, err
			}
			body[i] = c
		}
		return func(vals []Value) error {
			for _, c := range body {
				if err := c(vals); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case IfStmt:
		cond, err := CompileBool(t.Cond, l)
		if err != nil {
			return nil, err
		}
		cthen, err := CompileStmt(t.Then, l)
		if err != nil {
			return nil, err
		}
		celse, err := CompileStmt(t.Else, l)
		if err != nil {
			return nil, err
		}
		return func(vals []Value) error {
			b, err := cond(vals)
			if err != nil {
				return err
			}
			if b {
				return cthen(vals)
			}
			return celse(vals)
		}, nil
	case Repeat:
		// Fuse "repeat N { d := x op y }" into a native loop: no dynamic
		// dispatch per iteration. This is the compute-quantum shape of the
		// engine benchmarks, so it gets the tightest code.
		if c, ok := compileRepeatAssign(t, l); ok {
			return c, nil
		}
		body, err := CompileStmt(t.Body, l)
		if err != nil {
			return nil, err
		}
		times := t.Times
		return func(vals []Value) error {
			for i := 0; i < times; i++ {
				if err := body(vals); err != nil {
					return err
				}
			}
			return nil
		}, nil
	default:
		return nil, fmt.Errorf("compile: unsupported statement %T", s)
	}
}

// compileRepeatAssign recognizes repeat N { d := x op y } with direct
// operands and emits a closed loop with no dynamic dispatch per
// iteration. Typing and division checks are still performed every
// iteration — an operand may be the destination itself (d := c / d), so
// errors can first appear at any iteration and the checks must not be
// hoisted out of the loop.
func compileRepeatAssign(t Repeat, l *Layout) (CompiledStmt, bool) {
	a, ok := t.Body.(Assign)
	if !ok {
		return nil, false
	}
	bin, ok := a.Rhs.(Binary)
	if !ok || !isIntOp(bin.Op) {
		return nil, false
	}
	ox, oy, ok := directOperands(bin, l)
	if !ok {
		return nil, false
	}
	slot, ok := l.Slot(a.Name)
	if !ok {
		return nil, false
	}
	times := t.Times
	switch bin.Op {
	case OpAdd, OpSub, OpMul:
		op := bin.Op
		return func(vals []Value) error {
			for i := 0; i < times; i++ {
				x, y := ox.fetch(vals), oy.fetch(vals)
				if x.kind != KindInt || y.kind != KindInt {
					return evalErr(bin, "operator %v needs int operands, got %s and %s", op, x.Kind(), y.Kind())
				}
				var r int64
				switch op {
				case OpAdd:
					r = x.i + y.i
				case OpSub:
					r = x.i - y.i
				default:
					r = x.i * y.i
				}
				vals[slot] = Value{kind: KindInt, i: r}
			}
			return nil
		}, true
	default:
		op := bin.Op
		return func(vals []Value) error {
			for i := 0; i < times; i++ {
				v, err := applyIntOp(op, ox.fetch(vals), oy.fetch(vals), bin)
				if err != nil {
					return err
				}
				vals[slot] = v
			}
			return nil
		}, true
	}
}
