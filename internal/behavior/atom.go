// Package behavior implements atomic BIP components: automata extended
// with data variables, whose transitions are labelled by ports, guarded by
// expressions, and carry update actions. Atomic components are the
// "Behavior" layer of BIP; their coordination (interactions, priorities)
// lives in package core.
package behavior

import (
	"fmt"
	"strings"

	"bip/internal/expr"
)

// Pos is a source position (1-based line and column) recorded on
// declarations by the DSL front-end and threaded through to diagnostics
// (bip/lint). The zero value means "unknown" — hand-built models carry
// no positions and every consumer must tolerate that.
type Pos struct {
	Line int
	Col  int
}

// Known reports whether the position was actually recorded.
func (p Pos) Known() bool { return p.Line > 0 }

// String renders "line:col" ("?" when unknown).
func (p Pos) String() string {
	if !p.Known() {
		return "?"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// VarDecl declares a component variable with its initial value.
type VarDecl struct {
	Name string
	Init expr.Value
	// Pos is the declaration's source position (zero when hand-built).
	Pos Pos
}

// Port is an interaction point of an atomic component. Vars lists the
// component variables exported through the port: interaction guards may
// read them and interaction data transfer may read and write them.
type Port struct {
	Name string
	Vars []string
	// Pos is the declaration's source position (zero when hand-built).
	Pos Pos
}

// Transition is a guarded, port-labelled control step. A transition with
// guard nil is always enabled from its source location. Action (may be
// nil) executes over the component's variables when the transition fires.
type Transition struct {
	From, To string
	Port     string
	Guard    expr.Expr
	Action   expr.Stmt
	// Pos is the declaration's source position (zero when hand-built).
	Pos Pos
}

// String renders the transition as source text.
func (t Transition) String() string {
	out := fmt.Sprintf("%s --%s--> %s", t.From, t.Port, t.To)
	if t.Guard != nil {
		out += " when " + t.Guard.String()
	}
	if t.Action != nil {
		out += " do " + t.Action.String()
	}
	return out
}

// Atom is an atomic BIP component. Construct atoms with Builder, which
// validates cross-references and compiles the atom; a hand-built Atom
// must pass Validate before use.
type Atom struct {
	Name        string
	Locations   []string
	Initial     string
	Vars        []VarDecl
	Ports       []Port
	Transitions []Transition

	// Pos is the source position of the declaration this atom came from
	// (the atom type for DSL instances); LocPos, when non-nil, is
	// parallel to Locations. Both are zero/nil for hand-built models.
	Pos    Pos
	LocPos []Pos

	// Invariants are the designer-asserted state predicates of the
	// component, checked by the verification packages (they are claims,
	// not assumptions).
	Invariants []expr.Expr

	portIdx map[string]int
	// locIdx interns location names: every declared location gets its
	// index into Locations, which is what the fixed-width binary state
	// keys encode instead of the location string.
	locIdx map[string]int
	varIdx map[string]int

	// transOn indexes transitions by (source location, port) so that
	// enabledness checks are a single lookup instead of a scan over every
	// transition. Built by Validate.
	transOn map[locPort]transGroup
	// layout lays out every state's variable store (declaration order);
	// it is built once by Validate and shared by all states of the atom.
	// The per-transition compiled guards/actions run on those stores'
	// value slices directly, so every store handed to the atom must be
	// laid out by it. Entries are nil exactly when the transition has no
	// guard/action.
	layout   *expr.Layout
	cGuards  []expr.CompiledBool
	cActions []expr.CompiledStmt
	// cInvs are the invariants compiled against the same layout, so
	// runtime invariant checking (engine, streaming verification) pays a
	// slice index per variable access like the transition hot paths do.
	cInvs []expr.CompiledBool
}

// locPort keys the transition index.
type locPort struct{ loc, port string }

// transGroup is the pre-computed transition set for one (location, port)
// pair. When guarded is false every member is unconditionally enabled at
// the location, so the cached index slice doubles as the enabled set.
type transGroup struct {
	idx     []int
	guarded bool
}

// Validate checks internal consistency and builds lookup indices. It must
// be called (directly or via Builder.Build) before the atom is used.
func (a *Atom) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("atom: empty name")
	}
	if len(a.Locations) == 0 {
		return fmt.Errorf("atom %s: no locations", a.Name)
	}
	a.locIdx = make(map[string]int, len(a.Locations))
	for i, l := range a.Locations {
		if l == "" {
			return fmt.Errorf("atom %s: empty location name", a.Name)
		}
		if _, dup := a.locIdx[l]; dup {
			return fmt.Errorf("atom %s: duplicate location %q", a.Name, l)
		}
		a.locIdx[l] = i
	}
	if !a.HasLocation(a.Initial) {
		return fmt.Errorf("atom %s: initial location %q undeclared", a.Name, a.Initial)
	}
	a.varIdx = make(map[string]int, len(a.Vars))
	for i, v := range a.Vars {
		if v.Name == "" {
			return fmt.Errorf("atom %s: empty variable name", a.Name)
		}
		if _, dup := a.varIdx[v.Name]; dup {
			return fmt.Errorf("atom %s: duplicate variable %q", a.Name, v.Name)
		}
		if v.Init.Kind() == expr.KindInvalid {
			return fmt.Errorf("atom %s: variable %q has no initial value", a.Name, v.Name)
		}
		a.varIdx[v.Name] = i
	}
	a.portIdx = make(map[string]int, len(a.Ports))
	for i, p := range a.Ports {
		if p.Name == "" {
			return fmt.Errorf("atom %s: empty port name", a.Name)
		}
		if _, dup := a.portIdx[p.Name]; dup {
			return fmt.Errorf("atom %s: duplicate port %q", a.Name, p.Name)
		}
		for _, v := range p.Vars {
			if _, ok := a.varIdx[v]; !ok {
				return fmt.Errorf("atom %s: port %q exports undeclared variable %q", a.Name, p.Name, v)
			}
		}
		a.portIdx[p.Name] = i
	}
	for i, t := range a.Transitions {
		if !a.HasLocation(t.From) {
			return fmt.Errorf("atom %s: transition %d: unknown source location %q", a.Name, i, t.From)
		}
		if !a.HasLocation(t.To) {
			return fmt.Errorf("atom %s: transition %d: unknown target location %q", a.Name, i, t.To)
		}
		if _, ok := a.portIdx[t.Port]; !ok {
			return fmt.Errorf("atom %s: transition %d: unknown port %q", a.Name, i, t.Port)
		}
		for _, v := range expr.Vars(t.Guard) {
			if _, ok := a.varIdx[v]; !ok {
				return fmt.Errorf("atom %s: transition %d: guard reads undeclared variable %q", a.Name, i, v)
			}
		}
		for _, v := range append(expr.Reads(t.Action), expr.Writes(t.Action)...) {
			if _, ok := a.varIdx[v]; !ok {
				return fmt.Errorf("atom %s: transition %d: action uses undeclared variable %q", a.Name, i, v)
			}
		}
		if err := expr.CheckKinds(t.Action, func(v string) expr.Kind { return a.Vars[a.varIdx[v]].Init.Kind() }); err != nil {
			return fmt.Errorf("atom %s: transition %d: %w", a.Name, i, err)
		}
	}
	for i, inv := range a.Invariants {
		for _, v := range expr.Vars(inv) {
			if _, ok := a.varIdx[v]; !ok {
				return fmt.Errorf("atom %s: invariant %d reads undeclared variable %q", a.Name, i, v)
			}
		}
	}
	return a.buildIndices()
}

// buildIndices precomputes the (location, port) transition index, the
// variable layout of the atom's states, and compiles guards, actions and
// invariants against that layout. Called at the end of Validate, once
// every referenced name is known to be declared; a compile failure is a
// Validate error, so a validated atom carries compiled code for every
// guard, action and invariant.
func (a *Atom) buildIndices() error {
	a.transOn = make(map[locPort]transGroup)
	for i, t := range a.Transitions {
		k := locPort{loc: t.From, port: t.Port}
		g := a.transOn[k]
		g.idx = append(g.idx, i)
		g.guarded = g.guarded || t.Guard != nil
		a.transOn[k] = g
	}
	layout := a.newLayout()
	a.layout = layout
	a.cGuards = make([]expr.CompiledBool, len(a.Transitions))
	a.cActions = make([]expr.CompiledStmt, len(a.Transitions))
	for i, t := range a.Transitions {
		var err error
		if t.Guard != nil {
			if a.cGuards[i], err = expr.CompileBool(t.Guard, layout); err != nil {
				return fmt.Errorf("atom %s: transition %d: guard: %w", a.Name, i, err)
			}
		}
		if t.Action != nil {
			if a.cActions[i], err = expr.CompileStmt(t.Action, layout); err != nil {
				return fmt.Errorf("atom %s: transition %d: action: %w", a.Name, i, err)
			}
		}
	}
	a.cInvs = make([]expr.CompiledBool, len(a.Invariants))
	for i, inv := range a.Invariants {
		var err error
		if a.cInvs[i], err = expr.CompileBool(inv, layout); err != nil {
			return fmt.Errorf("atom %s: invariant %d: %w", a.Name, i, err)
		}
	}
	return nil
}

// newLayout lays out the declared variables in declaration order. The
// names are distinct once Validate has checked them; an unvalidated
// atom with duplicate names is a programming error.
func (a *Atom) newLayout() *expr.Layout {
	names := make([]string, len(a.Vars))
	for i, v := range a.Vars {
		names[i] = v.Name
	}
	l, err := expr.NewLayout(names)
	if err != nil {
		panic(fmt.Sprintf("behavior: atom %s: %v (atom not validated?)", a.Name, err))
	}
	return l
}

// Layout returns the variable layout shared by the atom's states: the
// declared variables in declaration order. It is nil before Validate.
func (a *Atom) Layout() *expr.Layout { return a.layout }

// BrokenInvariant evaluates the atom's invariants at vars, which must be
// laid out by the atom, and returns the index of the first one that does
// not hold, or -1 when all hold. A non-nil error reports an evaluation
// failure of invariant idx. The invariants compiled at Validate time run
// on the store's values directly.
func (a *Atom) BrokenInvariant(vars expr.Slots) (idx int, err error) {
	for i, inv := range a.cInvs {
		holds, err := inv(vars.V)
		if err != nil {
			return i, err
		}
		if !holds {
			return i, nil
		}
	}
	return -1, nil
}

// HasPort reports whether the atom declares a port with the given name.
func (a *Atom) HasPort(name string) bool {
	_, ok := a.portIdx[name]
	return ok
}

// PortByName returns the declared port. It reports false for unknown
// names.
func (a *Atom) PortByName(name string) (Port, bool) {
	i, ok := a.portIdx[name]
	if !ok {
		return Port{}, false
	}
	return a.Ports[i], true
}

// HasLocation reports whether the atom declares the location.
func (a *Atom) HasLocation(name string) bool {
	_, ok := a.locIdx[name]
	return ok
}

// LocationIndex returns the interned index of the named location (its
// position in Locations). It reports false for undeclared names or on an
// atom that has not been validated.
func (a *Atom) LocationIndex(name string) (int, bool) {
	i, ok := a.locIdx[name]
	return i, ok
}

// HasVar reports whether the atom declares the variable.
func (a *Atom) HasVar(name string) bool {
	_, ok := a.varIdx[name]
	return ok
}

// InitialState returns a fresh state at the initial location with all
// variables at their declared initial values, laid out by the atom's
// layout. The atom must have been validated.
func (a *Atom) InitialState() State {
	vals := make([]expr.Value, len(a.Vars))
	for i, v := range a.Vars {
		vals[i] = v.Init
	}
	return State{Loc: a.Initial, Vars: expr.Slots{L: a.layout, V: vals}}
}

// TransitionsOn returns the indices of transitions labelled by port that
// leave location from. The result preserves declaration order and is
// owned by the caller.
func (a *Atom) TransitionsOn(from, port string) []int {
	return append([]int(nil), a.transOn[locPort{loc: from, port: port}].idx...)
}

// Enabled returns the indices of transitions labelled by port that are
// enabled in state s (source location matches and local guard holds).
// The result is owned by the caller.
func (a *Atom) Enabled(s State, port string) ([]int, error) {
	en, err := a.EnabledView(s, port)
	if err != nil || en == nil {
		return nil, err
	}
	return append([]int(nil), en...), nil
}

// EnabledView is Enabled without the defensive copy: when every candidate
// transition is unguarded the pre-computed index slice is returned
// directly. The caller must treat the result as read-only. This is the
// per-port enabledness primitive of the engines' hot path.
func (a *Atom) EnabledView(s State, port string) ([]int, error) {
	g := a.transOn[locPort{loc: s.Loc, port: port}]
	if !g.guarded {
		return g.idx, nil
	}
	var out []int
	for _, i := range g.idx {
		ok := true
		if cg := a.cGuards[i]; cg != nil {
			var err error
			if ok, err = cg(s.Vars.V); err != nil {
				return nil, fmt.Errorf("atom %s: %w", a.Name, err)
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	return out, nil
}

// Exec fires transition index i from state s and returns the successor
// state. The input state is not mutated.
func (a *Atom) Exec(s State, i int) (State, error) {
	next := State{Loc: s.Loc, Vars: s.Vars.Clone()}
	loc, err := a.ExecInPlace(next, i)
	if err != nil {
		return State{}, err
	}
	next.Loc = loc
	return next, nil
}

// ExecInPlace fires transition index i from state s, mutating s.Vars in
// place, and returns the successor location. The caller must own the
// store's values exclusively; on error they may be partially updated,
// so the state must be discarded. It exists so that single-owner hot
// loops (the engines' step contexts) avoid copying the variable store
// on every step.
func (a *Atom) ExecInPlace(s State, i int) (string, error) {
	if i < 0 || i >= len(a.Transitions) {
		return "", fmt.Errorf("atom %s: transition index %d out of range", a.Name, i)
	}
	t := &a.Transitions[i]
	if t.From != s.Loc {
		return "", fmt.Errorf("atom %s: transition %d starts at %q, state is at %q", a.Name, i, t.From, s.Loc)
	}
	if ca := a.cActions[i]; ca != nil {
		if err := ca(s.Vars.V); err != nil {
			return "", fmt.Errorf("atom %s: %w", a.Name, err)
		}
	}
	return t.To, nil
}

// BinaryKeyWidth returns the size of the atom's fixed-width binary
// state-key record: a 4-byte interned location index plus one
// fixed-width value encoding per declared variable.
func (a *Atom) BinaryKeyWidth() int {
	return 4 + expr.BinaryWidth*len(a.Vars)
}

// AppendBinaryKey appends the fixed-width binary encoding of s — exactly
// BinaryKeyWidth bytes — and returns the extended buffer. The location is
// encoded as its interned index and variables follow in declaration
// order, so two states of the same atom get equal records iff they are
// Equal, with no separators and no per-state allocation. It is the
// building block of the exploration seen-set's arena-stored keys and
// requires a validated atom; an undeclared location is a programming
// error and panics (states produced by the semantics only ever sit on
// declared locations).
func (a *Atom) AppendBinaryKey(buf []byte, s State) []byte {
	// Small location lists resolve by linear scan: states carry the very
	// string objects declared on the atom, so the == below is almost
	// always a pointer comparison — cheaper than hashing the name, and
	// this lookup runs once per atom per explored transition.
	li, ok := -1, false
	if len(a.Locations) <= 8 {
		for i, l := range a.Locations {
			if l == s.Loc {
				li, ok = i, true
				break
			}
		}
	} else {
		li, ok = a.locIdx[s.Loc]
	}
	if !ok {
		panic(fmt.Sprintf("behavior: atom %s: binary key for undeclared location %q (atom not validated?)", a.Name, s.Loc))
	}
	buf = append(buf, byte(li), byte(li>>8), byte(li>>16), byte(li>>24))
	for _, v := range s.Vars.V {
		buf = v.AppendBinary(buf)
	}
	return buf
}

// DecodeBinaryKey inverts AppendBinaryKey: it decodes one fixed-width
// binary record (exactly BinaryKeyWidth bytes), writing the variable
// values into vals (len == number of declared variables, declaration
// order — the atom's layout) and returning the location. The location
// is the atom's own declared string instance, so a state rebuilt as
// State{Loc: loc, Vars: expr.Slots{L: a.Layout(), V: vals}} takes the
// same pointer-fast comparisons and compiled paths as a state that came
// from the semantics. A value whose kind differs from its variable's
// declared kind is an error: validation rejects every assignment that
// would change a kind (expr.CheckKinds), so no reachable state holds
// one. Exploration's spilled frontier uses it to reload evicted states,
// carving every atom's values from one allocation.
func (a *Atom) DecodeBinaryKey(rec []byte, vals []expr.Value) (string, error) {
	if len(rec) != a.BinaryKeyWidth() {
		return "", fmt.Errorf("behavior: atom %s: binary key record has %d bytes, want %d", a.Name, len(rec), a.BinaryKeyWidth())
	}
	li := int(uint32(rec[0]) | uint32(rec[1])<<8 | uint32(rec[2])<<16 | uint32(rec[3])<<24)
	if li < 0 || li >= len(a.Locations) {
		return "", fmt.Errorf("behavior: atom %s: binary key names location index %d of %d", a.Name, li, len(a.Locations))
	}
	off := 4
	for i, vd := range a.Vars {
		v, err := expr.DecodeBinary(rec[off : off+expr.BinaryWidth])
		if err != nil {
			return "", fmt.Errorf("behavior: atom %s: variable %s: %w", a.Name, vd.Name, err)
		}
		if v.Kind() != vd.Init.Kind() {
			return "", fmt.Errorf("behavior: atom %s: variable %s is %s, binary key holds %s", a.Name, vd.Name, vd.Init.Kind(), v.Kind())
		}
		vals[i] = v
		off += expr.BinaryWidth
	}
	return a.Locations[li], nil
}

// Rename returns a deep copy of the atom under a new name. Ports,
// locations and variables keep their local names; only the component
// identity changes. Used when instantiating an atom type several times.
func (a *Atom) Rename(name string) *Atom {
	cp := &Atom{
		Name:        name,
		Locations:   append([]string(nil), a.Locations...),
		Initial:     a.Initial,
		Vars:        append([]VarDecl(nil), a.Vars...),
		Ports:       make([]Port, len(a.Ports)),
		Transitions: append([]Transition(nil), a.Transitions...),
		Invariants:  append([]expr.Expr(nil), a.Invariants...),
		Pos:         a.Pos,
		LocPos:      append([]Pos(nil), a.LocPos...),
	}
	for i, p := range a.Ports {
		cp.Ports[i] = Port{Name: p.Name, Vars: append([]string(nil), p.Vars...), Pos: p.Pos}
	}
	// Re-validate to rebuild the indices of the copy.
	if err := cp.Validate(); err != nil {
		// The source atom was valid, so the copy must be; a failure here
		// is a programming error in Rename itself.
		panic(fmt.Sprintf("behavior: rename of valid atom failed validation: %v", err))
	}
	return cp
}

// String renders a compact description of the atom.
func (a *Atom) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "atom %s: %d locations, %d vars, %d ports, %d transitions",
		a.Name, len(a.Locations), len(a.Vars), len(a.Ports), len(a.Transitions))
	return b.String()
}

// State is the dynamic state of an atom: a control location and a
// valuation of its variables. The store must be laid out by the atom's
// layout: the atom's compiled code addresses it by slot, and a store
// over any other layout is not interpreted by name. States built by the
// semantics (InitialState, Exec, clones, and System-level decoding of
// binary keys) are laid out so.
type State struct {
	Loc  string
	Vars expr.Slots
}

// Clone returns a deep copy of the state.
func (s State) Clone() State {
	return State{Loc: s.Loc, Vars: s.Vars.Clone()}
}

// Key returns a canonical string encoding of the state, usable as a map
// key during state-space exploration. Variables are sorted by name.
func (s State) Key() string {
	return string(s.Vars.AppendKey([]byte(s.Loc)))
}

// Equal reports whether two states have the same location and valuation.
func (s State) Equal(o State) bool {
	return s.Loc == o.Loc && s.Vars.Equal(o.Vars)
}
