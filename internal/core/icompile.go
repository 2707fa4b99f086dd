package core

import (
	"fmt"
	"sort"

	"bip/internal/expr"
)

// This file compiles interaction-level guards and data-transfer actions
// the same way transition guards/actions are compiled in behavior: once,
// at Validate time, against a per-interaction qualified-variable slot
// layout. The hot paths (movesOfInteraction, execInto) and the engines
// (TableDeriver.Guard, TableDeriver.Transfer) then fill a flat frame
// with one slot read per exported variable and run a closure, instead
// of splitting "comp.var" strings and resolving component indices on
// every single access through qualEnv. Compilation is total:
// a failure is a Validate error, so the closures are the only execution
// path of a validated System. The qualEnv interpreter remains the
// reference semantics (System.QualEnv, System.Dominated) that the
// differential tests hold the closures to.

// slotRef pre-resolves one frame slot of an interaction's layout to the
// variable it mirrors: atom index plus the variable's slot in that
// atom's store.
type slotRef struct {
	atom int
	slot int
}

// interComp is the compiled form of one interaction: the slot layout
// over its exported scope plus the compiled guard and action (nil
// exactly when the interaction has no guard or no action).
type interComp struct {
	slots  []slotRef
	guard  expr.CompiledBool
	action expr.CompiledStmt
}

// compileInteractions builds s.icomp and s.maxISlots. Called from
// Validate once every scope name is known to resolve; a compile or
// slot-resolution failure is returned as a Validate error.
func (s *System) compileInteractions() error {
	s.icomp = make([]interComp, len(s.Interactions))
	s.maxISlots = 0
	for i, in := range s.Interactions {
		scope := s.exportedScope(in)
		names := make([]string, 0, len(scope))
		for n := range scope {
			names = append(names, n)
		}
		sort.Strings(names)
		refs, layout, err := s.slotLayout(names)
		if err != nil {
			return fmt.Errorf("system %s: interaction %q: %w", s.Name, in.Name, err)
		}
		ic := &s.icomp[i]
		ic.slots = refs
		if in.Guard != nil {
			if ic.guard, err = expr.CompileBool(in.Guard, layout); err != nil {
				return fmt.Errorf("system %s: interaction %q guard: %w", s.Name, in.Name, err)
			}
		}
		if in.Action != nil {
			if ic.action, err = expr.CompileStmt(in.Action, layout); err != nil {
				return fmt.Errorf("system %s: interaction %q action: %w", s.Name, in.Name, err)
			}
		}
		if len(names) > s.maxISlots {
			s.maxISlots = len(names)
		}
	}
	return nil
}

// compilePriorities slot-compiles the conditional priority rules' When
// expressions, one layout per rule over the (sorted) qualified variables
// the condition reads. Called after compileInteractions in Validate, so
// s.maxISlots can absorb the widest condition and a single iframe serves
// both the interaction hot paths and the state-based priority filter
// (dominatedAt). A compile or slot-resolution failure is returned as a
// Validate error.
func (s *System) compilePriorities() error {
	for lo := range s.higher {
		for ri := range s.higher[lo] {
			rp := &s.higher[lo][ri]
			rp.slots, rp.cond = nil, nil
			if rp.When == nil {
				continue
			}
			names := expr.Vars(rp.When)
			refs, layout, err := s.slotLayout(names)
			if err == nil {
				rp.cond, err = expr.CompileBool(rp.When, layout)
			}
			if err != nil {
				return fmt.Errorf("system %s: priority %s < %s: %w",
					s.Name, s.Interactions[lo].Name, s.Interactions[rp.High].Name, err)
			}
			rp.slots = refs
			if len(names) > s.maxISlots {
				s.maxISlots = len(names)
			}
		}
	}
	return nil
}

// slotLayout resolves qualified variable names to store slots and lays
// them out, in the given order, as the frame layout compiled code runs
// on.
func (s *System) slotLayout(names []string) ([]slotRef, *expr.Layout, error) {
	refs := make([]slotRef, len(names))
	for k, n := range names {
		ai, v, err := s.splitQualified(n)
		if err != nil {
			return nil, nil, err
		}
		slot, ok := s.Atoms[ai].Layout().Slot(v)
		if !ok {
			return nil, nil, fmt.Errorf("variable %q has no slot", n)
		}
		refs[k] = slotRef{atom: ai, slot: slot}
	}
	layout, err := expr.NewLayout(names)
	if err != nil {
		return nil, nil, err
	}
	return refs, layout, nil
}

// newIFrame returns a scratch frame large enough for any interaction's
// compiled guard or action (and any compiled priority condition), or nil
// when neither exists. Frames are owned by step contexts (TableDeriver,
// ScratchExec) or allocated per call by the from-scratch API, never by
// the System itself — that is what keeps a validated System read-only
// and therefore safe to share across exploration workers and engines.
func (s *System) newIFrame() []expr.Value {
	if s.maxISlots == 0 {
		return nil
	}
	return make([]expr.Value, s.maxISlots)
}

// guard evaluates interaction ii's compiled guard over the
// participants' stores in st.Vars; an interaction without a guard holds.
// It is core's one interaction-guard evaluation: move enumeration and
// the engines (through TableDeriver.Guard) all run it.
func (s *System) guard(ii int, st *State, frame []expr.Value) (bool, error) {
	ic := &s.icomp[ii]
	if ic.guard == nil {
		return true, nil
	}
	ok, err := ic.guard(ic.fillIFrame(frame, st))
	if err != nil {
		return false, fmt.Errorf("interaction %q: %w", s.Interactions[ii].Name, err)
	}
	return ok, nil
}

// transfer runs interaction ii's compiled data transfer in place on the
// participants' stores in st.Vars, which the caller must own. It is
// core's one data-transfer execution: execInto and the engines (through
// TableDeriver.Transfer) all run it.
func (s *System) transfer(ii int, st *State, frame []expr.Value) error {
	ic := &s.icomp[ii]
	if ic.action == nil {
		return nil
	}
	f := ic.fillIFrame(frame, st)
	if err := ic.action(f); err != nil {
		return fmt.Errorf("interaction %q: %w", s.Interactions[ii].Name, err)
	}
	ic.storeIFrame(f, st)
	return nil
}

// fillIFrame copies the interaction's exported variables from st into
// frame, in slot order.
func (ic *interComp) fillIFrame(frame []expr.Value, st *State) []expr.Value {
	f := frame[:len(ic.slots)]
	for k, ref := range ic.slots {
		f[k] = st.Vars[ref.atom].V[ref.slot]
	}
	return f
}

// storeIFrame writes the frame back into st. Every slot belongs to a
// port-exported variable of a participant, so in all execution paths the
// touched stores are exclusively owned by the caller.
func (ic *interComp) storeIFrame(frame []expr.Value, st *State) {
	for k, ref := range ic.slots {
		st.Vars[ref.atom].V[ref.slot] = frame[k]
	}
}
