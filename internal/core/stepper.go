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
// Exploration and the single-threaded engine therefore keep immutable
// per-state move tables: a successor's table shares every non-incident
// entry with its parent's table, so a walk or a breadth-first search
// recomputes enabledness only where the fired move could have changed
// it (the "cached frontier"). The TableDeriver owning that scratch also
// serves the multi-threaded and distributed engines, which evaluate
// guards, data transfer and priorities over the stores their components
// offered.
//
// The classic Enabled/EnabledRaw API remains the reference semantics; the
// differential test in stepper_test.go checks that both paths produce
// identical move sets after every step on randomized systems.

// Dominated reports whether interaction ii is suppressed by a priority
// rule: some rule ii < High has High enabled (per the enabled vector)
// and its condition holding in env. Domination depends only on the
// interaction and the state, never on a particular choice vector, so it
// is decided once per interaction. This interpreting form is the
// reference semantics the tests hold the slot-compiled conditions to;
// every execution path goes through dominatedAt.
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
	return s.NewTableDeriver().Vector(st, nil)
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
// pays no per-state allocation for the filter. Only st.Vars is read (by
// the compiled priority conditions).
func (d *TableDeriver) Enabled(vec [][]Move, st State, out []Move) ([]Move, error) {
	return d.sys.enabledFromTable(vec, &st, d.enabledInter, d.frame, out)
}

// Guard evaluates interaction ii's compiled guard over the
// participants' stores in st.Vars; an interaction without a guard holds.
// Only those stores are read, so st may hold nothing else: the engines
// evaluate guards on the stores their components offered.
func (d *TableDeriver) Guard(ii int, st *State) (bool, error) {
	return d.sys.guard(ii, st, d.frame)
}

// Transfer runs interaction ii's compiled data transfer in place on the
// participants' stores in st.Vars, which the caller must own. Only
// those stores are read or written.
func (d *TableDeriver) Transfer(ii int, st *State) error {
	return d.sys.transfer(ii, st, d.frame)
}

// Raw appends every move of a table to out, in interaction order.
func (d *TableDeriver) Raw(vec [][]Move, out []Move) []Move {
	for _, ms := range vec {
		out = append(out, ms...)
	}
	return out
}
