package core

import (
	"fmt"
	"strings"

	"bip/internal/behavior"
	"bip/internal/expr"
)

// State is a global system state: per-component control locations and
// variable valuations, indexed like System.Atoms. Vars[i] is laid out by
// Atoms[i]'s layout (behavior.Atom.Layout) — Initial, Exec and
// StateFromBinaryKey all build it so — which is what lets the compiled
// interaction code, priority conditions and property terms address
// variables by slot index.
type State struct {
	Locs []string
	Vars []expr.Slots
}

// Initial returns the system's initial state.
func (s *System) Initial() State {
	st := State{Locs: make([]string, len(s.Atoms)), Vars: make([]expr.Slots, len(s.Atoms))}
	for i, a := range s.Atoms {
		local := a.InitialState()
		st.Locs[i] = local.Loc
		st.Vars[i] = local.Vars
	}
	return st
}

// Clone returns a deep copy of the state.
func (st State) Clone() State {
	out := State{Locs: append([]string(nil), st.Locs...), Vars: make([]expr.Slots, len(st.Vars))}
	for i, v := range st.Vars {
		out.Vars[i] = v.Clone()
	}
	return out
}

// Local returns the behaviour-level state of component i.
func (st State) Local(i int) behavior.State {
	return behavior.State{Loc: st.Locs[i], Vars: st.Vars[i]}
}

// Key renders the state as text, one component's Key per atom joined
// by '#'. It names states in messages; exploration keys states by
// System.AppendBinaryKey.
func (st State) Key() string {
	var b strings.Builder
	for i := range st.Locs {
		if i > 0 {
			b.WriteByte('#')
		}
		b.WriteString(st.Local(i).Key())
	}
	return b.String()
}

// BinaryKeyWidth returns the size of the fixed-width binary state key.
// Available after Validate.
func (s *System) BinaryKeyWidth() int { return s.keyWidth }

// AppendBinaryKey appends the fixed-width binary encoding of st —
// exactly BinaryKeyWidth bytes — and returns the extended buffer. Each
// atom contributes its interned-location record (behavior.AppendBinaryKey)
// in atom order; fixed widths mean no separators are needed and the
// encoding is equality-compatible with State.Equal. Exploration's
// seen-sets store these records in flat per-shard arenas instead of one
// Go string per state. The system must have been validated.
func (s *System) AppendBinaryKey(buf []byte, st State) []byte {
	for i, a := range s.Atoms {
		buf = a.AppendBinaryKey(buf, behavior.State{Loc: st.Locs[i], Vars: st.Vars[i]})
	}
	return buf
}

// StateFromBinaryKey inverts AppendBinaryKey: it rebuilds a
// materialized State from one fixed-width binary key (exactly
// BinaryKeyWidth bytes), carving its headers and values from slab (a
// nil slab allocates them). Round-tripping is exact — the decoded state
// re-encodes to the same key and carries the atoms' own declared
// location strings and layouts — which is what lets the exploration
// drivers treat the key as the complete on-disk representation of a
// spilled frontier state.
func (s *System) StateFromBinaryKey(key []byte, slab *Slab) (State, error) {
	if len(key) != s.keyWidth {
		return State{}, fmt.Errorf("system %s: binary state key has %d bytes, want %d", s.Name, len(key), s.keyWidth)
	}
	st := State{Locs: slab.Locs(len(s.Atoms)), Vars: slab.Vars(len(s.Atoms))}
	for i, a := range s.Atoms {
		off := s.keyOff[i]
		v := slab.Values(len(a.Vars))
		loc, err := a.DecodeBinaryKey(key[off:off+a.BinaryKeyWidth()], v)
		if err != nil {
			return State{}, fmt.Errorf("system %s: %w", s.Name, err)
		}
		st.Locs[i] = loc
		st.Vars[i] = expr.Slots{L: a.Layout(), V: v}
	}
	return st, nil
}

// Equal reports whether two states coincide.
func (st State) Equal(o State) bool {
	if len(st.Locs) != len(o.Locs) {
		return false
	}
	for i := range st.Locs {
		if !st.Local(i).Equal(o.Local(i)) {
			return false
		}
	}
	return true
}

// qualEnv exposes a State as an expr.Env with qualified variable names
// ("comp.var"): the interpreter's view of a global state, which is the
// reference semantics the compiled paths are tested against.
type qualEnv struct {
	sys *System
	st  *State
}

var _ expr.Env = (*qualEnv)(nil)

func (q *qualEnv) Get(name string) (expr.Value, bool) {
	ai, v, err := q.sys.splitQualified(name)
	if err != nil {
		return expr.Value{}, false
	}
	return q.st.Vars[ai].Get(v)
}

func (q *qualEnv) Set(name string, val expr.Value) error {
	ai, v, err := q.sys.splitQualified(name)
	if err != nil {
		return err
	}
	return q.st.Vars[ai].Set(v, val)
}

// QualEnv returns a read/write view of st with qualified names, spanning
// every variable of every component: the interpreter's view of a state,
// which the tests hold the compiled guards, transfers and priority
// conditions to.
func (s *System) QualEnv(st *State) expr.Env {
	return &qualEnv{sys: s, st: st}
}

// exportedScope computes the set of qualified names the interaction's
// guard and action may access.
func (s *System) exportedScope(in *Interaction) map[string]bool {
	scope := make(map[string]bool)
	for _, pr := range in.Ports {
		a := s.Atoms[s.atomIdx[pr.Comp]]
		if port, ok := a.PortByName(pr.Port); ok {
			for _, v := range port.Vars {
				scope[pr.Comp+"."+v] = true
			}
		}
	}
	return scope
}

// Move is one way an interaction can fire from a state: the interaction
// index plus, for each of its ports (in declaration order), the chosen
// local transition index in the owning atom.
type Move struct {
	Interaction int
	Choices     []int
}

// Label returns the interaction name of the move.
func (s *System) Label(m Move) string { return s.Interactions[m.Interaction].Name }

// movesOfInteraction appends the moves of interaction index ii at st to
// buf, with their choice vectors carved from slab (exploration's
// per-worker arenas; nil allocates them). Priorities are not applied
// here. This is the single-interaction primitive both the from-scratch
// API and the incremental step context build on. frame is the caller's
// scratch for compiled guard evaluation (sized by newIFrame); it may be
// nil only when no interaction exports variables.
func (s *System) movesOfInteraction(st *State, ii int, buf []Move, frame []expr.Value, slab *Slab) ([]Move, error) {
	in := s.Interactions[ii]
	pa := s.portAtoms[ii]
	// Per-port enabled local transitions, on the stack for typical arities.
	var optArr [8][]int
	var options [][]int
	if len(in.Ports) <= len(optArr) {
		options = optArr[:len(in.Ports)]
	} else {
		options = make([][]int, len(in.Ports))
	}
	for pi, pr := range in.Ports {
		ai := pa[pi]
		en, err := s.Atoms[ai].EnabledView(st.Local(ai), pr.Port)
		if err != nil {
			return nil, fmt.Errorf("interaction %q: %w", in.Name, err)
		}
		if len(en) == 0 {
			return buf, nil
		}
		options[pi] = en
	}
	// Interaction guard over exported variables, compiled against the
	// interaction's slot layout: one slot read per exported variable, no
	// per-access string splitting.
	ok, err := s.guard(ii, st, frame)
	if err != nil {
		return nil, err
	}
	if !ok {
		return buf, nil
	}
	// Cartesian product of per-port choices.
	var choiceArr [8]int
	var choice []int
	if len(options) <= len(choiceArr) {
		choice = choiceArr[:len(options)]
	} else {
		choice = make([]int, len(options))
	}
	var rec func(int)
	rec = func(pi int) {
		if pi == len(options) {
			cs := slab.Ints(len(choice))
			copy(cs, choice)
			buf = append(buf, Move{Interaction: ii, Choices: cs})
			return
		}
		for _, t := range options[pi] {
			choice[pi] = t
			rec(pi + 1)
		}
	}
	rec(0)
	return buf, nil
}

// EnabledRaw returns every enabled move at st, before priority filtering.
func (s *System) EnabledRaw(st State) ([]Move, error) {
	var out []Move
	var err error
	frame := s.newIFrame()
	for ii := range s.Interactions {
		out, err = s.movesOfInteraction(&st, ii, out, frame, nil)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Enabled returns the moves allowed at st: enabled interactions that are
// maximal with respect to the priority rules (a move is suppressed when a
// rule Low < High applies, High is enabled at st, and the rule's condition
// holds). This is the BIP glue semantics: interactions restricted by
// priorities. It shares the priority filter with the incremental paths
// (enabledFromTable), so the reference and incremental semantics cannot
// drift apart.
func (s *System) Enabled(st State) ([]Move, error) {
	if len(s.Priorities) == 0 {
		return s.EnabledRaw(st)
	}
	vec, err := s.EnabledVector(st)
	if err != nil {
		return nil, err
	}
	return s.enabledFromTable(vec, &st, make([]bool, len(s.Interactions)), s.newIFrame(), nil)
}

// Exec fires move m from st and returns the successor state. Execution
// order follows BIP semantics: the interaction's data transfer runs first
// over the exported variables, then each participant fires its chosen
// local transition. The input state is not mutated.
func (s *System) Exec(st State, m Move) (State, error) {
	if m.Interaction < 0 || m.Interaction >= len(s.Interactions) {
		return State{}, fmt.Errorf("system %s: move references interaction %d out of range", s.Name, m.Interaction)
	}
	in := s.Interactions[m.Interaction]
	if len(m.Choices) != len(in.Ports) {
		return State{}, fmt.Errorf("system %s: move for %q has %d choices, want %d",
			s.Name, in.Name, len(m.Choices), len(in.Ports))
	}
	// Copy-on-write: only the participants' variable stores can change,
	// so non-participant stores are shared with the predecessor state.
	// States are treated as immutable once produced (exploration and
	// engines never write into a state they did not just create). The
	// participants' stores are cloned exactly once; both the interaction's
	// data transfer and the local transition actions then run in place on
	// the clones.
	pa := s.portAtoms[m.Interaction]
	next := State{
		Locs: append([]string(nil), st.Locs...),
		Vars: append([]expr.Slots(nil), st.Vars...),
	}
	for _, ai := range pa {
		next.Vars[ai] = st.Vars[ai].Clone()
	}
	if err := s.execInto(&next, m, s.newIFrame()); err != nil {
		return State{}, err
	}
	return next, nil
}

// execInto fires m on next, whose participant variable stores must be
// exclusively owned by the caller. On error next is partially updated and
// must be discarded. frame is the caller's scratch for the compiled data
// transfer (see movesOfInteraction).
func (s *System) execInto(next *State, m Move, frame []expr.Value) error {
	if err := s.transfer(m.Interaction, next, frame); err != nil {
		return err
	}
	in := s.Interactions[m.Interaction]
	for pi, ai := range s.portAtoms[m.Interaction] {
		loc, err := s.Atoms[ai].ExecInPlace(next.Local(ai), m.Choices[pi])
		if err != nil {
			return fmt.Errorf("interaction %q: %w", in.Name, err)
		}
		next.Locs[ai] = loc
	}
	return nil
}

// ScratchExec executes the successors of one parent state into
// reusable buffers, so that exploration can compute a successor's key —
// and discard already-visited successors — without allocating anything.
// Only genuinely new states are materialized (MaterializeSlab).
//
// Firing an interaction changes only its participants, so a successor
// costs O(participants), not O(atoms): Load copies the parent's headers
// once per expansion, and each Step first restores the previous move's
// participants from the parent, then clones and runs only its own. Key
// patches the successor's binary key the same way, re-encoding only the
// participants' records into a copy of the parent's key (encoded once,
// on the first Key after Load) at the offsets fixed by Validate. Not
// safe for concurrent use.
type ScratchExec struct {
	sys    *System
	parent State
	st     State
	vals   [][]expr.Value // reusable per-atom value slices
	frame  []expr.Value   // scratch for compiled interaction actions
	// stepped lists the atoms whose entries in st differ from the
	// parent's (the last Step's participants); keyed lists the atoms
	// whose records in key differ from pkey. Both alias System.portAtoms.
	stepped, keyed []int
	// pkey is the parent's binary key once hasKey is set; key is the
	// successor's, patched in place.
	pkey, key []byte
	hasKey    bool
}

// NewScratchExec returns a scratch executor for s.
func (s *System) NewScratchExec() *ScratchExec {
	vals := make([][]expr.Value, len(s.Atoms))
	for i, a := range s.Atoms {
		vals[i] = make([]expr.Value, 0, len(a.Vars))
	}
	return &ScratchExec{sys: s, vals: vals, frame: s.newIFrame()}
}

// Load makes st the parent of the following Steps. st must stay
// unmodified while it is loaded.
func (x *ScratchExec) Load(st State) {
	x.parent = st
	x.st.Locs = append(x.st.Locs[:0], st.Locs...)
	x.st.Vars = append(x.st.Vars[:0], st.Vars...)
	x.stepped, x.keyed, x.hasKey = nil, nil, false
}

// Step fires m from the loaded parent into the scratch buffers and
// returns a read-only view of the successor, valid until the next Step
// or Load. The parent is not mutated. After an error the view is
// garbage, but the next Step starts again from the parent.
func (x *ScratchExec) Step(m Move) (*State, error) {
	s := x.sys
	if m.Interaction < 0 || m.Interaction >= len(s.Interactions) {
		return nil, fmt.Errorf("system %s: move references interaction %d out of range", s.Name, m.Interaction)
	}
	if len(m.Choices) != len(s.Interactions[m.Interaction].Ports) {
		return nil, fmt.Errorf("system %s: move for %q has %d choices, want %d",
			s.Name, s.Interactions[m.Interaction].Name, len(m.Choices), len(s.Interactions[m.Interaction].Ports))
	}
	for _, ai := range x.stepped {
		x.st.Locs[ai] = x.parent.Locs[ai]
		x.st.Vars[ai] = x.parent.Vars[ai]
	}
	x.stepped = s.portAtoms[m.Interaction]
	for _, ai := range x.stepped {
		src := x.parent.Vars[ai]
		x.vals[ai] = append(x.vals[ai][:0], src.V...)
		x.st.Vars[ai] = expr.Slots{L: src.L, V: x.vals[ai]}
	}
	if err := s.execInto(&x.st, m, x.frame); err != nil {
		return nil, err
	}
	return &x.st, nil
}

// Key returns the binary key (AppendBinaryKey) of the last successful
// Step's successor, valid until the next Step, Key or Load.
func (x *ScratchExec) Key() []byte {
	s := x.sys
	if !x.hasKey {
		x.pkey = s.AppendBinaryKey(x.pkey[:0], x.parent)
		x.key = append(x.key[:0], x.pkey...)
		x.hasKey = true
	}
	for _, ai := range x.keyed {
		off := s.keyOff[ai]
		copy(x.key[off:off+s.Atoms[ai].BinaryKeyWidth()], x.pkey[off:])
	}
	x.keyed = x.stepped
	for _, ai := range x.keyed {
		off := s.keyOff[ai]
		s.Atoms[ai].AppendBinaryKey(x.key[off:off], x.st.Local(ai))
	}
	return x.key
}

// CheckInvariants evaluates every atom-level invariant at st and returns
// the first violated one, if any.
func (s *System) CheckInvariants(st State) error {
	return s.NewInvariantChecker().Check(st)
}

// InvariantChecker evaluates the atoms' designer-asserted invariants,
// running the slot-compiled forms built at Validate time on the state's
// stores (behavior.Atom.BrokenInvariant). It holds no scratch and only
// reads the System, so checkers may be shared freely.
type InvariantChecker struct {
	sys *System
}

// NewInvariantChecker returns a checker for s. The system must have been
// validated.
func (s *System) NewInvariantChecker() *InvariantChecker {
	return &InvariantChecker{sys: s}
}

// Check evaluates every atom-level invariant at st and returns the first
// violated one, if any.
func (c *InvariantChecker) Check(st State) error {
	for i, a := range c.sys.Atoms {
		if len(a.Invariants) == 0 {
			continue
		}
		bad, err := a.BrokenInvariant(st.Vars[i])
		if err != nil {
			return fmt.Errorf("component %s invariant %s: %w", a.Name, a.Invariants[bad], err)
		}
		if bad >= 0 {
			return fmt.Errorf("component %s violates invariant %s at %s", a.Name, a.Invariants[bad], st.Local(i).Key())
		}
	}
	return nil
}
