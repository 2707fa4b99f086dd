// Package core implements the BIP composition model: systems of atomic
// components glued by interactions (the "I" of BIP) filtered by priorities
// (the "P"), together with their operational semantics.
//
// A System is a flat model: a set of atoms, a set of multiparty
// interactions over their ports, and a set of priority rules. Hierarchical
// models (Composite) flatten to Systems; every other artifact in this
// repository — DSL programs, Lustre embeddings, architectures, refined
// distributed models — elaborates to a System, realizing the paper's
// "single host component language rooted in operational semantics".
package core

import (
	"fmt"
	"sort"
	"strings"

	"bip/internal/behavior"
	"bip/internal/expr"
)

// PortRef names a port of a component instance.
type PortRef struct {
	Comp string
	Port string
}

// String renders the reference as "comp.port".
func (p PortRef) String() string { return p.Comp + "." + p.Port }

// P is shorthand for building a PortRef.
func P(comp, port string) PortRef { return PortRef{Comp: comp, Port: port} }

// Interaction is a multiparty synchronization among the listed ports.
// It is enabled when every port has an enabled local transition and Guard
// holds. When it fires, Action (the data transfer) executes first over the
// qualified variables exported by the ports, then every participant fires
// its chosen local transition.
//
// Guard and Action reference variables with qualified names "comp.var";
// validation restricts them to variables exported by the interaction's own
// ports.
type Interaction struct {
	Name   string
	Ports  []PortRef
	Guard  expr.Expr
	Action expr.Stmt
	// Pos is the declaration's source position (zero when hand-built).
	Pos behavior.Pos
}

// Participants returns the distinct component names in declaration order.
func (in *Interaction) Participants() []string {
	out := make([]string, 0, len(in.Ports))
	seen := make(map[string]bool, len(in.Ports))
	for _, p := range in.Ports {
		if !seen[p.Comp] {
			seen[p.Comp] = true
			out = append(out, p.Comp)
		}
	}
	return out
}

// String renders the interaction as source text.
func (in *Interaction) String() string {
	parts := make([]string, len(in.Ports))
	for i, p := range in.Ports {
		parts[i] = p.String()
	}
	out := in.Name + ": " + strings.Join(parts, " + ")
	if in.Guard != nil {
		out += " when " + in.Guard.String()
	}
	if in.Action != nil {
		out += " do " + in.Action.String()
	}
	return out
}

// Priority declares that interaction Low must not fire while interaction
// High is enabled, whenever the optional state condition When holds
// (nil = always). Priorities filter among enabled interactions; they are
// how BIP steers execution (scheduling policies, maximal progress).
type Priority struct {
	Low  string
	High string
	When expr.Expr
	// Pos is the declaration's source position (zero when hand-built).
	Pos behavior.Pos
}

// String renders the rule.
func (p Priority) String() string {
	out := p.Low + " < " + p.High
	if p.When != nil {
		out += " when " + p.When.String()
	}
	return out
}

// System is a flat BIP model.
type System struct {
	Name         string
	Atoms        []*behavior.Atom
	Interactions []*Interaction
	Priorities   []Priority

	atomIdx  map[string]int
	interIdx map[string]int
	// higher[i] lists, for interaction index i, the priority rules whose
	// Low is i (pre-resolved for the semantics hot path).
	higher [][]PriorityRule

	// portAtoms[i][p] is the atom index of interaction i's p-th port,
	// pre-resolved so the semantics never hashes component names.
	portAtoms [][]int
	// incident[a] lists the interactions with a port on atom a, in
	// declaration order. Firing an interaction only changes the local
	// states of its participants, so after a step only the interactions
	// incident to those atoms can change enabledness — this index is what
	// makes incremental move enumeration (TableDeriver.DeriveSlab) cheap.
	incident [][]int
	// icomp[i] is interaction i's compiled guard/action over a
	// per-interaction qualified-variable slot layout (icompile.go);
	// maxISlots sizes the scratch frames the compiled code runs on (it
	// also covers the compiled priority When conditions).
	icomp     []interComp
	maxISlots int
	// keyWidth is the size of the fixed-width binary state key
	// (AppendBinaryKey): the sum of the atoms' record widths. keyOff[a]
	// is the offset of atom a's record in it, which is what lets a
	// successor's key be patched in place (ScratchExec.Key).
	keyWidth int
	keyOff   []int
	// indep is the static independence structure (clusters, priority
	// entanglement) partial-order reduction queries; independence.go.
	indep *independence
}

// PriorityRule is a pre-resolved priority edge: the owning (low)
// interaction is suppressed while interaction High is enabled and When
// holds (nil = always).
type PriorityRule struct {
	High int
	When expr.Expr

	// slots/cond are the slot-compiled form of When over its qualified
	// variables (icompile.go); nil exactly when When is nil.
	slots []slotRef
	cond  expr.CompiledBool
}

// PortAtoms returns the atom index of each port of interaction ii,
// pre-resolved at Validate time. Read-only.
func (s *System) PortAtoms(ii int) []int { return s.portAtoms[ii] }

// IncidentTo returns the indices of the interactions with a port on atom
// ai, in declaration order. Read-only.
func (s *System) IncidentTo(ai int) []int { return s.incident[ai] }

// Validate checks cross-references and builds lookup indices. Builders
// call it automatically; hand-assembled systems must call it before use.
func (s *System) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("system: empty name")
	}
	s.atomIdx = make(map[string]int, len(s.Atoms))
	for i, a := range s.Atoms {
		if a == nil {
			return fmt.Errorf("system %s: nil atom at index %d", s.Name, i)
		}
		if _, dup := s.atomIdx[a.Name]; dup {
			return fmt.Errorf("system %s: duplicate component name %q", s.Name, a.Name)
		}
		if err := a.Validate(); err != nil {
			return fmt.Errorf("system %s: %w", s.Name, err)
		}
		s.atomIdx[a.Name] = i
	}
	s.interIdx = make(map[string]int, len(s.Interactions))
	for i, in := range s.Interactions {
		if err := s.validateInteraction(in); err != nil {
			return err
		}
		if _, dup := s.interIdx[in.Name]; dup {
			return fmt.Errorf("system %s: duplicate interaction name %q", s.Name, in.Name)
		}
		s.interIdx[in.Name] = i
	}
	// Resolve the structural indices the semantics hot paths rely on.
	s.portAtoms = make([][]int, len(s.Interactions))
	s.incident = make([][]int, len(s.Atoms))
	for i, in := range s.Interactions {
		pa := make([]int, len(in.Ports))
		for pi, pr := range in.Ports {
			pa[pi] = s.atomIdx[pr.Comp]
			s.incident[pa[pi]] = append(s.incident[pa[pi]], i)
		}
		s.portAtoms[i] = pa
	}
	s.higher = make([][]PriorityRule, len(s.Interactions))
	for _, p := range s.Priorities {
		lo, ok := s.interIdx[p.Low]
		if !ok {
			return fmt.Errorf("system %s: priority references unknown interaction %q", s.Name, p.Low)
		}
		hi, ok := s.interIdx[p.High]
		if !ok {
			return fmt.Errorf("system %s: priority references unknown interaction %q", s.Name, p.High)
		}
		if lo == hi {
			return fmt.Errorf("system %s: priority %q < %q is reflexive", s.Name, p.Low, p.High)
		}
		for _, v := range expr.Vars(p.When) {
			if _, _, err := s.splitQualified(v); err != nil {
				return fmt.Errorf("system %s: priority %s: %w", s.Name, p, err)
			}
		}
		s.higher[lo] = append(s.higher[lo], PriorityRule{High: hi, When: p.When})
	}
	if err := s.compileInteractions(); err != nil {
		return err
	}
	if err := s.compilePriorities(); err != nil {
		return err
	}
	s.computeIndependence()
	s.keyWidth = 0
	s.keyOff = make([]int, len(s.Atoms))
	for i, a := range s.Atoms {
		s.keyOff[i] = s.keyWidth
		s.keyWidth += a.BinaryKeyWidth()
	}
	return nil
}

func (s *System) validateInteraction(in *Interaction) error {
	if in == nil {
		return fmt.Errorf("system %s: nil interaction", s.Name)
	}
	if in.Name == "" {
		return fmt.Errorf("system %s: interaction with empty name", s.Name)
	}
	if len(in.Ports) == 0 {
		return fmt.Errorf("system %s: interaction %q has no ports", s.Name, in.Name)
	}
	seenComp := make(map[string]bool, len(in.Ports))
	exported := make(map[string]expr.Kind) // "comp.var" → declared kind
	for _, pr := range in.Ports {
		ai, ok := s.atomIdx[pr.Comp]
		if !ok {
			return fmt.Errorf("system %s: interaction %q references unknown component %q", s.Name, in.Name, pr.Comp)
		}
		if seenComp[pr.Comp] {
			return fmt.Errorf("system %s: interaction %q uses component %q twice", s.Name, in.Name, pr.Comp)
		}
		seenComp[pr.Comp] = true
		port, ok := s.Atoms[ai].PortByName(pr.Port)
		if !ok {
			return fmt.Errorf("system %s: interaction %q references unknown port %s", s.Name, in.Name, pr)
		}
		a := s.Atoms[ai]
		for _, v := range port.Vars {
			slot, _ := a.Layout().Slot(v)
			exported[pr.Comp+"."+v] = a.Vars[slot].Init.Kind()
		}
	}
	for _, v := range expr.Vars(in.Guard) {
		if _, ok := exported[v]; !ok {
			return fmt.Errorf("system %s: interaction %q guard reads %q, not exported by its ports", s.Name, in.Name, v)
		}
	}
	for _, v := range append(expr.Reads(in.Action), expr.Writes(in.Action)...) {
		if _, ok := exported[v]; !ok {
			return fmt.Errorf("system %s: interaction %q action uses %q, not exported by its ports", s.Name, in.Name, v)
		}
	}
	if err := expr.CheckKinds(in.Action, func(v string) expr.Kind { return exported[v] }); err != nil {
		return fmt.Errorf("system %s: interaction %q: %w", s.Name, in.Name, err)
	}
	return nil
}

// splitQualified splits "comp.var" (component names may contain '/' and
// '.', so the split is at the last dot) and resolves the component.
func (s *System) splitQualified(name string) (atomIdx int, varName string, err error) {
	i := strings.LastIndexByte(name, '.')
	if i <= 0 || i == len(name)-1 {
		return 0, "", fmt.Errorf("variable %q is not of the form comp.var", name)
	}
	comp, v := name[:i], name[i+1:]
	ai, ok := s.atomIdx[comp]
	if !ok {
		return 0, "", fmt.Errorf("variable %q references unknown component %q", name, comp)
	}
	if !s.Atoms[ai].HasVar(v) {
		return 0, "", fmt.Errorf("variable %q: component %q has no variable %q", name, comp, v)
	}
	return ai, v, nil
}

// AtomIndex returns the index of the named component, or -1.
func (s *System) AtomIndex(name string) int {
	if i, ok := s.atomIdx[name]; ok {
		return i
	}
	return -1
}

// Atom returns the named component, or nil.
func (s *System) Atom(name string) *behavior.Atom {
	if i, ok := s.atomIdx[name]; ok {
		return s.Atoms[i]
	}
	return nil
}

// InteractionIndex returns the index of the named interaction, or -1.
func (s *System) InteractionIndex(name string) int {
	if i, ok := s.interIdx[name]; ok {
		return i
	}
	return -1
}

// InteractionNames returns all interaction names in declaration order.
func (s *System) InteractionNames() []string {
	out := make([]string, len(s.Interactions))
	for i, in := range s.Interactions {
		out[i] = in.Name
	}
	return out
}

// ClosePriorities returns the transitive closure of the unconditional
// priority rules (conditional rules are kept but not chained, since their
// conditions would need conjoining). BIP requires the priority relation to
// be a strict partial order; Validate accepts any rule set, and this
// helper produces the closure explicitly so that the model text stays
// small.
func (s *System) ClosePriorities() error {
	// The closure resolves interaction names through the lookup index, so
	// the system must have been validated first — a hand-assembled system
	// that skipped Validate would otherwise silently resolve every name to
	// index 0 and fabricate bogus edges.
	if s.interIdx == nil {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("system %s: ClosePriorities before Validate: %w", s.Name, err)
		}
	}
	// Collect the unconditional edges.
	type edge struct{ lo, hi int }
	have := make(map[edge]bool)
	var uncond []edge
	for _, p := range s.Priorities {
		if p.When != nil {
			continue
		}
		lo, ok := s.interIdx[p.Low]
		if !ok {
			return fmt.Errorf("system %s: priority references unknown interaction %q", s.Name, p.Low)
		}
		hi, ok := s.interIdx[p.High]
		if !ok {
			return fmt.Errorf("system %s: priority references unknown interaction %q", s.Name, p.High)
		}
		e := edge{lo, hi}
		have[e] = true
		uncond = append(uncond, e)
	}
	// Floyd–Warshall style closure over interaction indices.
	n := len(s.Interactions)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for _, e := range uncond {
		adj[e.lo][e.hi] = true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !adj[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if adj[k][j] {
					adj[i][j] = true
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if adj[i][i] {
			return fmt.Errorf("system %s: priority cycle through %q", s.Name, s.Interactions[i].Name)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if adj[i][j] && !have[edge{i, j}] {
				s.Priorities = append(s.Priorities, Priority{
					Low: s.Interactions[i].Name, High: s.Interactions[j].Name,
				})
			}
		}
	}
	return s.Validate()
}

// Stats summarizes model size; used by the tools' output.
func (s *System) Stats() string {
	return fmt.Sprintf("system %s: %d components, %d interactions, %d priorities",
		s.Name, len(s.Atoms), len(s.Interactions), len(s.Priorities))
}

// sortedQualifiedVars lists every "comp.var" in the system, sorted.
func (s *System) sortedQualifiedVars() []string {
	var out []string
	for _, a := range s.Atoms {
		for _, v := range a.Vars {
			out = append(out, a.Name+"."+v.Name)
		}
	}
	sort.Strings(out)
	return out
}
