package core

import (
	"fmt"

	"bip/internal/expr"
)

// This file implements incremental move enumeration. Enabled(st) derives
// every interaction's moves from scratch at every state; but Exec only
// changes the local states of the fired interaction's participants, so
// after a step only the interactions incident to those atoms (the
// atom→interaction index built by Validate) can change enabledness.
//
// Two views of the same idea live here:
//
//   - Stepper: a mutable step context for engine-style runs. It owns its
//     state, executes moves in place (no per-step cloning), and keeps a
//     per-interaction move-set cache of which only the dirty entries are
//     recomputed on the next query.
//
//   - enabled vectors: immutable per-state move tables for exploration.
//     A successor's table shares every non-incident entry with its
//     parent's table, so breadth-first search recomputes enabledness only
//     where the fired move could have changed it (the "cached frontier").
//
// The classic Enabled/EnabledRaw API remains the reference semantics; the
// differential test in stepper_test.go checks that both paths produce
// identical move sets after every step on randomized systems.

// Stepper is an incremental step context over a validated System. It is
// not safe for concurrent use. Move slices returned by Enabled and
// EnabledRaw — including their Choices — are valid only until the next
// Exec or Reset. After any error the stepper is poisoned and must be
// Reset before further use.
type Stepper struct {
	sys *System
	st  State

	cache     [][]Move // cache[ii]: raw moves of interaction ii
	dirty     []bool
	dirtyList []int

	enabledInter []bool       // scratch for priority filtering
	out          []Move       // scratch for assembled results
	frame        []expr.Value // scratch for compiled interaction code
	sticky       error
}

// NewStepper returns a step context positioned at the system's initial
// state.
func (s *System) NewStepper() *Stepper {
	sp := &Stepper{
		sys:          s,
		cache:        make([][]Move, len(s.Interactions)),
		dirty:        make([]bool, len(s.Interactions)),
		dirtyList:    make([]int, 0, len(s.Interactions)),
		enabledInter: make([]bool, len(s.Interactions)),
		frame:        s.newIFrame(),
	}
	sp.jumpTo(s.Initial())
	return sp
}

// State returns the stepper's current state. The caller must not mutate
// it and must not retain it across Exec calls; use State().Clone() for a
// stable snapshot.
func (sp *Stepper) State() State { return sp.st }

// Reset repositions the stepper at a deep copy of st and invalidates the
// whole cache.
func (sp *Stepper) Reset(st State) { sp.jumpTo(st.Clone()) }

// jumpTo installs owned as the current state. The caller transfers
// ownership of the state's variable stores.
func (sp *Stepper) jumpTo(owned State) {
	sp.st = owned
	sp.sticky = nil
	sp.dirtyList = sp.dirtyList[:0]
	for ii := range sp.dirty {
		sp.dirty[ii] = true
		sp.dirtyList = append(sp.dirtyList, ii)
	}
}

// refresh recomputes the cached move sets of every dirty interaction.
func (sp *Stepper) refresh() error {
	if sp.sticky != nil {
		return sp.sticky
	}
	for _, ii := range sp.dirtyList {
		ms, err := sp.sys.movesOfInteraction(&sp.st, ii, sp.cache[ii][:0], sp.frame)
		if err != nil {
			sp.sticky = err
			return err
		}
		sp.cache[ii] = ms
		sp.dirty[ii] = false
	}
	sp.dirtyList = sp.dirtyList[:0]
	return nil
}

// EnabledRaw returns every enabled move at the current state, before
// priority filtering, in the same order as System.EnabledRaw.
func (sp *Stepper) EnabledRaw() ([]Move, error) {
	if err := sp.refresh(); err != nil {
		return nil, err
	}
	out := sp.out[:0]
	for _, ms := range sp.cache {
		out = append(out, ms...)
	}
	sp.out = out
	return out, nil
}

// Enabled returns the moves allowed at the current state under the
// priority rules, in the same order as System.Enabled.
func (sp *Stepper) Enabled() ([]Move, error) {
	if err := sp.refresh(); err != nil {
		return nil, err
	}
	out, err := sp.sys.enabledFromTable(sp.cache, &sp.st, sp.enabledInter, sp.frame, sp.out[:0])
	if err != nil {
		sp.sticky = err
		return nil, err
	}
	sp.out = out
	return out, nil
}

// Exec fires m, advancing the state in place, and marks the interactions
// incident to m's participants dirty. m must come from the current
// Enabled/EnabledRaw set (same contract as System.Exec).
func (sp *Stepper) Exec(m Move) error {
	if sp.sticky != nil {
		return sp.sticky
	}
	sys := sp.sys
	if m.Interaction < 0 || m.Interaction >= len(sys.Interactions) {
		return fmt.Errorf("system %s: move references interaction %d out of range", sys.Name, m.Interaction)
	}
	if len(m.Choices) != len(sys.Interactions[m.Interaction].Ports) {
		return fmt.Errorf("system %s: move for %q has %d choices, want %d",
			sys.Name, sys.Interactions[m.Interaction].Name, len(m.Choices), len(sys.Interactions[m.Interaction].Ports))
	}
	if err := sys.execInto(&sp.st, m, sp.frame); err != nil {
		sp.sticky = err
		return err
	}
	for _, ai := range sys.portAtoms[m.Interaction] {
		for _, ii := range sys.incident[ai] {
			if !sp.dirty[ii] {
				sp.dirty[ii] = true
				sp.dirtyList = append(sp.dirtyList, ii)
			}
		}
	}
	return nil
}

// Dominated reports whether interaction ii is suppressed by a priority
// rule: some rule ii < High has High enabled (per the enabled vector)
// and its condition holding in env. Domination depends only on the
// interaction and the state, never on a particular choice vector, so it
// is decided once per interaction. This interpreting form is the
// reference semantics and serves callers whose conditions are evaluated
// against something other than a global state (the multi-threaded
// coordinator's offer environment); the state-based paths go through
// dominatedAt, which runs the slot-compiled conditions.
func (s *System) Dominated(ii int, enabled []bool, env expr.Env) (bool, error) {
	for _, rp := range s.higher[ii] {
		if !enabled[rp.High] {
			continue
		}
		ok, err := expr.EvalBool(rp.When, env)
		if err != nil {
			return false, fmt.Errorf("priority %s < %s: %w",
				s.Interactions[ii].Name, s.Interactions[rp.High].Name, err)
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// dominatedAt is Dominated specialized to a global state: conditional
// rules compiled at Validate time (compilePriorities) fill the caller's
// scratch frame with one slot read per variable and run a closure.
func (s *System) dominatedAt(ii int, enabled []bool, st *State, frame []expr.Value) (bool, error) {
	for _, rp := range s.higher[ii] {
		if !enabled[rp.High] {
			continue
		}
		if rp.cond == nil { // unconditional rule
			return true, nil
		}
		f := frame[:len(rp.slots)]
		for k, ref := range rp.slots {
			f[k] = st.Vars[ref.atom].V[ref.slot]
		}
		ok, err := rp.cond(f)
		if err != nil {
			return false, fmt.Errorf("priority %s < %s: %w",
				s.Interactions[ii].Name, s.Interactions[rp.High].Name, err)
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// enabledFromTable applies the priority rules to a complete raw move
// table and appends the maximal moves to out. frame is the caller's
// scratch for compiled priority conditions (newIFrame-sized).
func (s *System) enabledFromTable(table [][]Move, st *State, enabledInter []bool, frame []expr.Value, out []Move) ([]Move, error) {
	if len(s.Priorities) == 0 {
		for _, ms := range table {
			out = append(out, ms...)
		}
		return out, nil
	}
	for ii, ms := range table {
		enabledInter[ii] = len(ms) > 0
	}
	for ii, ms := range table {
		if len(ms) == 0 {
			continue
		}
		dominated, err := s.dominatedAt(ii, enabledInter, st, frame)
		if err != nil {
			return nil, err
		}
		if !dominated {
			out = append(out, ms...)
		}
	}
	return out, nil
}

// EnabledVector computes the complete per-interaction raw move table at
// st. Exploration keeps one table per frontier state and derives
// successors' tables incrementally with a TableDeriver.
func (s *System) EnabledVector(st State) ([][]Move, error) {
	vec := make([][]Move, len(s.Interactions))
	frame := s.newIFrame()
	for ii := range s.Interactions {
		ms, err := s.movesOfInteraction(&st, ii, nil, frame)
		if err != nil {
			return nil, err
		}
		vec[ii] = ms
	}
	return vec, nil
}

// TableDeriver derives successor move tables from parent tables,
// recomputing only the entries incident to a fired move's participants.
// Derived tables share the untouched entries with their parent, so they
// must be treated as immutable. A TableDeriver is not safe for concurrent
// use.
type TableDeriver struct {
	sys          *System
	dirty        []bool
	dirtyList    []int
	enabledInter []bool
	frame        []expr.Value // scratch for compiled interaction guards
	scratch      []Move       // scratch for DeriveSlab recomputation
}

// NewTableDeriver returns a deriver for s.
func (s *System) NewTableDeriver() *TableDeriver {
	return &TableDeriver{
		sys:          s,
		dirty:        make([]bool, len(s.Interactions)),
		enabledInter: make([]bool, len(s.Interactions)),
		frame:        s.newIFrame(),
	}
}

// Enabled applies priority filtering to a move table at st, appending the
// allowed moves to out. It reuses the deriver's scratch, so exploration
// pays no per-state allocation for the filter.
func (d *TableDeriver) Enabled(vec [][]Move, st State, out []Move) ([]Move, error) {
	return d.sys.enabledFromTable(vec, &st, d.enabledInter, d.frame, out)
}

// Raw appends every move of a table to out, in interaction order.
func (d *TableDeriver) Raw(vec [][]Move, out []Move) []Move {
	for _, ms := range vec {
		out = append(out, ms...)
	}
	return out
}
