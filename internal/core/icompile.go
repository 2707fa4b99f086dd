package core

import (
	"sort"

	"bip/internal/expr"
)

// This file compiles interaction-level guards and data-transfer actions
// the same way transition guards/actions are compiled in behavior: once,
// at Validate time, against a per-interaction qualified-variable slot
// layout. The hot paths (movesOfInteraction, execInto) then fill a flat
// frame with one slot read per exported variable and run a closure,
// instead of splitting "comp.var" strings and resolving component
// indices on every single access through qualEnv. The qualEnv
// interpreter remains the reference semantics and the fallback for
// anything the compiler does not cover.

// slotRef pre-resolves one frame slot of an interaction's layout to the
// variable it mirrors: atom index plus the variable's slot in that
// atom's store.
type slotRef struct {
	atom int
	slot int
}

// interComp is the compiled form of one interaction: the slot layout
// over its exported scope plus the compiled guard and action (nil when
// absent or not compilable, in which case callers interpret).
type interComp struct {
	slots  []slotRef
	guard  expr.CompiledBool
	action expr.CompiledStmt
}

// compileInteractions builds s.icomp and s.maxISlots. Called at the end
// of a successful Validate, so every scope name resolves; a compilation
// failure only disables the fast path for that interaction.
func (s *System) compileInteractions() {
	s.icomp = make([]interComp, len(s.Interactions))
	s.maxISlots = 0
	for i, in := range s.Interactions {
		names := make([]string, 0, len(s.scopes[i]))
		for n := range s.scopes[i] {
			names = append(names, n)
		}
		sort.Strings(names)
		refs, ok := s.slotRefs(names)
		if !ok {
			continue
		}
		ic := interComp{slots: refs}
		if layout, err := expr.NewLayout(names); err == nil {
			if in.Guard != nil {
				if g, err := expr.CompileBool(in.Guard, layout); err == nil {
					ic.guard = g
				}
			}
			if in.Action != nil {
				if c, err := expr.CompileStmt(in.Action, layout); err == nil {
					ic.action = c
				}
			}
		}
		s.icomp[i] = ic
		if len(names) > s.maxISlots {
			s.maxISlots = len(names)
		}
	}
}

// compilePriorities slot-compiles the conditional priority rules' When
// expressions, one layout per rule over the (sorted) qualified variables
// the condition reads. Called after compileInteractions in Validate, so
// s.maxISlots can absorb the widest condition and a single iframe serves
// both the interaction hot paths and the state-based priority filter
// (dominatedAt). A compilation failure only disables the fast path for
// that rule; the qualEnv interpreter remains the reference semantics.
func (s *System) compilePriorities() {
	for lo := range s.higher {
		for ri := range s.higher[lo] {
			rp := &s.higher[lo][ri]
			rp.slots, rp.cond = nil, nil
			if rp.When == nil {
				continue
			}
			names := expr.Vars(rp.When)
			refs, ok := s.slotRefs(names)
			if !ok {
				continue
			}
			layout, err := expr.NewLayout(names)
			if err != nil {
				continue
			}
			cond, err := expr.CompileBool(rp.When, layout)
			if err != nil {
				continue
			}
			rp.slots, rp.cond = refs, cond
			if len(names) > s.maxISlots {
				s.maxISlots = len(names)
			}
		}
	}
}

// slotRefs resolves qualified variable names to store slots. It
// reports false when some name does not resolve.
func (s *System) slotRefs(names []string) ([]slotRef, bool) {
	refs := make([]slotRef, len(names))
	for k, n := range names {
		ai, v, err := s.splitQualified(n)
		if err != nil {
			return nil, false
		}
		slot, ok := s.Atoms[ai].Layout().Slot(v)
		if !ok {
			return nil, false
		}
		refs[k] = slotRef{atom: ai, slot: slot}
	}
	return refs, true
}

// newIFrame returns a scratch frame large enough for any interaction's
// compiled guard or action (and any compiled priority condition), or nil
// when neither exists. Frames are owned by step contexts (Stepper, TableDeriver,
// ScratchExec) or allocated per call by the from-scratch API, never by
// the System itself — that is what keeps a validated System read-only
// and therefore safe to share across exploration workers.
func (s *System) newIFrame() []expr.Value {
	if s.maxISlots == 0 {
		return nil
	}
	return make([]expr.Value, s.maxISlots)
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
