package prop

import (
	"fmt"
	"sync"

	"bip/internal/core"
	"bip/internal/expr"
	"bip/internal/lts"
)

// This file compiles the algebra against a concrete system. Name
// resolution happens exactly once, here: At predicates resolve to an
// atom index plus the atom's own interned location string (the runtime
// check is a slice index and a string compare that usually short-cuts
// on pointer identity), Var terms resolve to an atom index plus the
// declared variable name (one direct map read per access, the same
// budget as the interaction compiler in internal/core/icompile.go), and
// event predicates resolve to per-label rule bitsets. Kind errors
// (comparing a bool variable, using an int variable as a predicate) are
// compile-time errors, so the compiled closures evaluate without any
// runtime failure path.

// Compiled is a property ready to ride one exploration: a streaming
// Sink plus the Verdict it settles into. bip.Verify builds one per
// property option and fans the event stream across them.
type Compiled struct {
	// Kind is the property's default report name.
	Kind string
	// Sink is the on-the-fly checker (one of the lts checkers or an
	// AutomatonCheck for temporal forms).
	Sink lts.Sink
	// Verdict is the checker's shared outcome block.
	Verdict *lts.Verdict
	// Visible declares what ample-set reduction must preserve for this
	// property's verdict to survive: the interaction labels the property
	// observes and the atoms whose locations or variables its predicates
	// read (see visibility.go for the per-combinator derivation). An
	// All-visibility property cannot be checked under reduction;
	// bip.Verify degrades it to full expansion.
	Visible lts.Visibility
}

// Compile resolves and compiles p against sys. Pure state-predicate
// forms specialize to the O(frontier) streaming checkers; temporal
// forms build a deterministic observer checked by the product-automaton
// sink. Unknown components, locations, variables or labels — and kind
// mismatches — are reported here, before any exploration starts.
func Compile(sys *core.System, p Prop) (*Compiled, error) {
	c := &compiler{sys: sys}
	out, err := compileChecker(c, p)
	if err != nil {
		return nil, err
	}
	out.Visible = visibilityOf(c, p)
	return out, nil
}

func compileChecker(c *compiler, p Prop) (*Compiled, error) {
	switch q := p.(type) {
	case alwaysProp:
		f, err := q.p.compilePred(c)
		if err != nil {
			return nil, fmt.Errorf("prop: %s: %w", p, err)
		}
		chk := &lts.InvariantCheck{Pred: onScratch(f)}
		return &Compiled{Kind: q.Kind(), Sink: chk, Verdict: &chk.Verdict}, nil
	case neverProp:
		f, err := q.p.compilePred(c)
		if err != nil {
			return nil, fmt.Errorf("prop: %s: %w", p, err)
		}
		holds := onScratch(f)
		chk := &lts.InvariantCheck{Pred: func(st core.State) bool { return !holds(st) }}
		return &Compiled{Kind: q.Kind(), Sink: chk, Verdict: &chk.Verdict}, nil
	case reachableProp:
		f, err := q.p.compilePred(c)
		if err != nil {
			return nil, fmt.Errorf("prop: %s: %w", p, err)
		}
		chk := &lts.ReachCheck{Pred: onScratch(f)}
		return &Compiled{Kind: q.Kind(), Sink: chk, Verdict: &chk.Verdict}, nil
	case deadlockProp:
		chk := &lts.DeadlockCheck{}
		return &Compiled{Kind: q.Kind(), Sink: chk, Verdict: &chk.Verdict}, nil
	default:
		a, err := p.observer(c)
		if err != nil {
			return nil, fmt.Errorf("prop: %s: %w", p, err)
		}
		obs, err := a.compile(c)
		if err != nil {
			return nil, fmt.Errorf("prop: %s: %w", p, err)
		}
		chk := lts.NewAutomatonCheck(obs)
		return &Compiled{Kind: p.Kind(), Sink: chk, Verdict: &chk.Verdict}, nil
	}
}

// CompilePred resolves and compiles a bare state predicate against sys,
// for callers that want the fast closure outside a Verify run (tools,
// benchmarks). The closure is safe for concurrent use: each call
// evaluates on a scratch state taken from a pool.
func CompilePred(sys *core.System, p Pred) (func(core.State) bool, error) {
	c := &compiler{sys: sys}
	f, err := p.compilePred(c)
	if err != nil {
		return nil, fmt.Errorf("prop: %s: %w", p, err)
	}
	pool := sync.Pool{New: func() any { return new(core.State) }}
	return func(st core.State) bool {
		s := pool.Get().(*core.State)
		*s = st
		ok := f(s)
		*s = core.State{}
		pool.Put(s)
		return ok
	}, nil
}

// onScratch adapts a compiled predicate to the by-value form the lts
// checkers take. Handing the address of a by-value state to a closure
// the compiler cannot see into moves every state to the heap; the
// adapter evaluates on one scratch state instead, cleared after each
// call so that it keeps no state alive. A sink receives one event at a
// time, so a checker's scratch is never shared.
func onScratch(f predFn) func(core.State) bool {
	var scratch core.State
	return func(st core.State) bool {
		scratch = st
		ok := f(&scratch)
		scratch = core.State{}
		return ok
	}
}

// compiler carries the resolution context.
type compiler struct {
	sys *core.System
}

func (c *compiler) atomIndex(comp string) (int, error) {
	ai := c.sys.AtomIndex(comp)
	if ai < 0 {
		return -1, fmt.Errorf("unknown component %q", comp)
	}
	return ai, nil
}

// ---------------------------------------------------------------------
// Predicate and term compilation.

func (p atPred) compilePred(c *compiler) (predFn, error) {
	ai, err := c.atomIndex(p.comp)
	if err != nil {
		return nil, err
	}
	a := c.sys.Atoms[ai]
	li, ok := a.LocationIndex(p.loc)
	if !ok {
		return nil, fmt.Errorf("component %q has no location %q", p.comp, p.loc)
	}
	// Compare against the atom's own declared string: states carry that
	// very string object, so == short-cuts on pointer identity.
	loc := a.Locations[li]
	return func(st *core.State) bool { return st.Locs[ai] == loc }, nil
}

// resolveVar resolves comp.v to its atom index, its slot in that atom's
// store (declaration order, the atom's layout) and its declared kind.
func (c *compiler) resolveVar(v VarRef) (int, int, expr.Kind, error) {
	ai, err := c.atomIndex(v.Comp)
	if err != nil {
		return -1, -1, expr.KindInvalid, err
	}
	for slot, vd := range c.sys.Atoms[ai].Vars {
		if vd.Name == v.Name {
			return ai, slot, vd.Init.Kind(), nil
		}
	}
	return -1, -1, expr.KindInvalid, fmt.Errorf("component %q has no variable %q", v.Comp, v.Name)
}

func (v VarRef) compileTerm(c *compiler) (intFn, error) {
	ai, slot, kind, err := c.resolveVar(v)
	if err != nil {
		return nil, err
	}
	if kind != expr.KindInt {
		return nil, fmt.Errorf("variable %s is %s, not int (bool variables are predicates)", v, kind)
	}
	return func(st *core.State) int64 {
		n, _ := st.Vars[ai].V[slot].Int()
		return n
	}, nil
}

func (v VarRef) compilePred(c *compiler) (predFn, error) {
	ai, slot, kind, err := c.resolveVar(v)
	if err != nil {
		return nil, err
	}
	if kind != expr.KindBool {
		return nil, fmt.Errorf("variable %s is %s, not bool (compare int variables: %s == ...)", v, kind, v)
	}
	return func(st *core.State) bool {
		b, _ := st.Vars[ai].V[slot].Bool()
		return b
	}, nil
}

func (p fnPred) compilePred(*compiler) (predFn, error) {
	f := p.f
	return func(st *core.State) bool { return f(*st) }, nil
}

func (b boolLit) compilePred(*compiler) (predFn, error) {
	v := bool(b)
	return func(*core.State) bool { return v }, nil
}

func (p notPred) compilePred(c *compiler) (predFn, error) {
	f, err := p.p.compilePred(c)
	if err != nil {
		return nil, err
	}
	return func(st *core.State) bool { return !f(st) }, nil
}

func (p andPred) compilePred(c *compiler) (predFn, error) {
	fs, err := compileAll(c, p.ps)
	if err != nil {
		return nil, err
	}
	switch len(fs) {
	case 0:
		return func(*core.State) bool { return true }, nil
	case 1:
		return fs[0], nil
	case 2:
		a, b := fs[0], fs[1]
		return func(st *core.State) bool { return a(st) && b(st) }, nil
	}
	return func(st *core.State) bool {
		for _, f := range fs {
			if !f(st) {
				return false
			}
		}
		return true
	}, nil
}

func (p orPred) compilePred(c *compiler) (predFn, error) {
	fs, err := compileAll(c, p.ps)
	if err != nil {
		return nil, err
	}
	switch len(fs) {
	case 0:
		return func(*core.State) bool { return false }, nil
	case 1:
		return fs[0], nil
	case 2:
		a, b := fs[0], fs[1]
		return func(st *core.State) bool { return a(st) || b(st) }, nil
	}
	return func(st *core.State) bool {
		for _, f := range fs {
			if f(st) {
				return true
			}
		}
		return false
	}, nil
}

func compileAll(c *compiler, ps []Pred) ([]predFn, error) {
	fs := make([]predFn, len(ps))
	for i, p := range ps {
		f, err := p.compilePred(c)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return fs, nil
}

func (p cmpPred) compilePred(c *compiler) (predFn, error) {
	l, err := p.l.compileTerm(c)
	if err != nil {
		return nil, err
	}
	r, err := p.r.compileTerm(c)
	if err != nil {
		return nil, err
	}
	switch p.op {
	case opEq:
		return func(st *core.State) bool { return l(st) == r(st) }, nil
	case opNe:
		return func(st *core.State) bool { return l(st) != r(st) }, nil
	case opLt:
		return func(st *core.State) bool { return l(st) < r(st) }, nil
	case opLe:
		return func(st *core.State) bool { return l(st) <= r(st) }, nil
	case opGt:
		return func(st *core.State) bool { return l(st) > r(st) }, nil
	default:
		return func(st *core.State) bool { return l(st) >= r(st) }, nil
	}
}

func (n intLit) compileTerm(*compiler) (intFn, error) {
	v := int64(n)
	return func(*core.State) int64 { return v }, nil
}

func (t arithTerm) compileTerm(c *compiler) (intFn, error) {
	l, err := t.l.compileTerm(c)
	if err != nil {
		return nil, err
	}
	r, err := t.r.compileTerm(c)
	if err != nil {
		return nil, err
	}
	switch t.op {
	case opAdd:
		return func(st *core.State) int64 { return l(st) + r(st) }, nil
	case opSub:
		return func(st *core.State) int64 { return l(st) - r(st) }, nil
	default:
		return func(st *core.State) int64 { return l(st) * r(st) }, nil
	}
}

func (t negTerm) compileTerm(c *compiler) (intFn, error) {
	f, err := t.t.compileTerm(c)
	if err != nil {
		return nil, err
	}
	return func(st *core.State) int64 { return -f(st) }, nil
}

// ---------------------------------------------------------------------
// Event validation.

func (e onEvent) validate(c *compiler) error {
	if len(e.labels) == 0 {
		return fmt.Errorf("on() needs at least one interaction label")
	}
	return c.checkLabels(e.labels)
}

func (e notOnEvent) validate(c *compiler) error { return c.checkLabels(e.labels) }

func (anyEvent) validate(*compiler) error { return nil }

func (c *compiler) checkLabels(labels []string) error {
	for _, l := range labels {
		if c.sys.InteractionIndex(l) < 0 {
			return fmt.Errorf("unknown interaction label %q", l)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Observer construction.

// obsAuto is the automaton skeleton the temporal combinators build
// structurally; compile flattens it into the lts.Observer bit machine.
type obsAuto struct {
	n     int
	init  int
	bad   uint64
	rules [][]obsRule
}

// obsRule is one priority-ordered rule of an observer state: on an
// observation matched by ev whose state satisfies when (nil = always),
// go to `to`.
type obsRule struct {
	ev   Event
	when Pred
	to   int
}

func (a alwaysProp) observer(*compiler) (*obsAuto, error) {
	// watch(0) --[any, !p]--> bad(1)
	return &obsAuto{
		n: 2, init: 0, bad: 1 << 1,
		rules: [][]obsRule{
			{{ev: AnyEvent(), when: Not(a.p), to: 1}},
			nil,
		},
	}, nil
}

func (n neverProp) observer(c *compiler) (*obsAuto, error) {
	return alwaysProp{p: Not(n.p)}.observer(c)
}

func (u untilProp) observer(*compiler) (*obsAuto, error) {
	// watch(0) --[e]--> done(1);  watch(0) --[any, !p]--> bad(2).
	// The release rule comes first: the state reached by e is outside
	// the obligation.
	return &obsAuto{
		n: 3, init: 0, bad: 1 << 2,
		rules: [][]obsRule{
			{
				{ev: u.e, to: 1},
				{ev: AnyEvent(), when: Not(u.p), to: 2},
			},
			nil,
			nil,
		},
	}, nil
}

func (b betweenProp) observer(*compiler) (*obsAuto, error) {
	// out(0), in(1), bad(2). close is checked before open, so an
	// interaction matching both closes. The state reached by open is
	// inside the episode (checked), the one reached by close outside.
	return &obsAuto{
		n: 3, init: 0, bad: 1 << 2,
		rules: [][]obsRule{
			{
				{ev: b.close, to: 0},
				{ev: b.open, when: Not(b.p), to: 2},
				{ev: b.open, to: 1},
			},
			{
				{ev: b.close, to: 0},
				{ev: AnyEvent(), when: Not(b.p), to: 2},
			},
			nil,
		},
	}, nil
}

func (a afterProp) observer(c *compiler) (*obsAuto, error) {
	inner, err := a.inner.observer(c)
	if err != nil {
		return nil, err
	}
	// idle(0) + inner shifted by 1. Arming on e replays the inner
	// automaton's initial observation at the state e reaches: the inner
	// init rules that accept the initial pseudo-event apply (in order)
	// with e as the trigger, then a fallback parks the observer at the
	// inner initial state.
	out := &obsAuto{
		n:     inner.n + 1,
		init:  0,
		bad:   inner.bad << 1,
		rules: make([][]obsRule, inner.n+1),
	}
	var arm []obsRule
	for _, r := range inner.rules[inner.init] {
		if r.ev.matchesInit() {
			arm = append(arm, obsRule{ev: a.e, when: r.when, to: r.to + 1})
		}
	}
	arm = append(arm, obsRule{ev: a.e, to: inner.init + 1})
	out.rules[0] = arm
	for i, rs := range inner.rules {
		shifted := make([]obsRule, len(rs))
		for j, r := range rs {
			shifted[j] = obsRule{ev: r.ev, when: r.when, to: r.to + 1}
		}
		out.rules[i+1] = shifted
	}
	return out, nil
}

func (r reachableProp) observer(*compiler) (*obsAuto, error) {
	return nil, fmt.Errorf("reachable(...) is a query, not a safety property; it cannot be nested")
}

func (deadlockProp) observer(*compiler) (*obsAuto, error) {
	return nil, fmt.Errorf("deadlockfree is not path-observable; it cannot be nested")
}

func (a Automaton) observer(*compiler) (*obsAuto, error) {
	if len(a.Trans) == 0 {
		return nil, fmt.Errorf("automaton needs at least one transition")
	}
	if a.Init == "" {
		return nil, fmt.Errorf("automaton needs an Init state")
	}
	idx := make(map[string]int)
	var names []string
	add := func(name string) int {
		if name == "" {
			return -1
		}
		if i, ok := idx[name]; ok {
			return i
		}
		idx[name] = len(names)
		names = append(names, name)
		return len(names) - 1
	}
	add(a.Init)
	for _, t := range a.Trans {
		if t.From == "" || t.To == "" {
			return nil, fmt.Errorf("automaton transition with empty state name")
		}
		add(t.From)
		add(t.To)
	}
	out := &obsAuto{n: len(names), init: 0, rules: make([][]obsRule, len(names))}
	for _, b := range a.Bad {
		i, ok := idx[b]
		if !ok {
			return nil, fmt.Errorf("automaton bad state %q unreachable by any transition", b)
		}
		out.bad |= 1 << uint(i)
	}
	for _, t := range a.Trans {
		ev := t.On
		if ev == nil {
			ev = AnyEvent()
		}
		out.rules[idx[t.From]] = append(out.rules[idx[t.From]],
			obsRule{ev: ev, when: t.When, to: idx[t.To]})
	}
	return out, nil
}

// maxObsStates and maxObsRules bound the bitset representation.
const (
	maxObsStates = 64
	maxObsRules  = 64
)

// compile flattens the skeleton into the lts.Observer bit machine:
// rules get global indices, events become per-label bitsets, and When
// predicates become slot-compiled closures evaluated once per state.
func (a *obsAuto) compile(c *compiler) (*lts.Observer, error) {
	if a.n > maxObsStates {
		return nil, fmt.Errorf("observer has %d states; the checker supports up to %d", a.n, maxObsStates)
	}
	total := 0
	for _, rs := range a.rules {
		total += len(rs)
	}
	if total > maxObsRules {
		return nil, fmt.Errorf("observer has %d rules; the checker supports up to %d", total, maxObsRules)
	}
	obs := &lts.Observer{
		NumStates: a.n,
		Init:      a.init,
		Bad:       a.bad,
		ByState:   make([][]int32, a.n),
		LabelBits: make(map[string]uint64),
	}
	var flat []obsRule
	for s, rs := range a.rules {
		for _, r := range rs {
			gi := len(flat)
			flat = append(flat, r)
			obs.ByState[s] = append(obs.ByState[s], int32(gi))
			obs.To = append(obs.To, int32(r.to))
		}
	}
	obs.Preds = make([]func(*core.State) bool, len(flat))
	for gi, r := range flat {
		if err := r.ev.validate(c); err != nil {
			return nil, err
		}
		if r.when != nil {
			f, err := r.when.compilePred(c)
			if err != nil {
				return nil, err
			}
			obs.Preds[gi] = f
		}
		if r.ev.matchesInit() {
			obs.InitBits |= 1 << uint(gi)
		}
	}
	labels := c.sys.InteractionNames()
	obs.AnyBits = ^uint64(0) >> uint(64-max(1, len(flat)))
	if len(flat) == 0 {
		obs.AnyBits = 0
	}
	for _, l := range labels {
		var bits uint64
		for gi, r := range flat {
			if r.ev.matchesLabel(l) {
				bits |= 1 << uint(gi)
			}
		}
		obs.LabelBits[l] = bits
		obs.AnyBits &= bits
	}
	return obs, nil
}
