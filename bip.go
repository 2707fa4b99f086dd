// Package bip is the public face of the library: rigorous system design
// with the BIP (Behaviour–Interaction–Priority) component framework.
//
// The package re-exports everything an external consumer needs to author
// models and run them, from a single import:
//
//   - behaviour: NewAtom builds atomic components (automata with ports,
//     variables, guarded transitions and invariants);
//   - interaction and priority: NewSystem composes atoms with multiparty
//     interactions, connectors and priority rules; Parse accepts the
//     textual BIP dialect;
//   - architectures: Mutex, FixedPriority, TMR and Compose apply reusable
//     coordination patterns (the paper's §5.5.2 architecture concept);
//   - execution: Run and RunMT drive the single- and multi-threaded
//     engines;
//   - verification: Verify streams the state space through on-the-fly
//     checkers with functional options — Verify(sys, Deadlock(),
//     Prop(prop.Never(...)), Workers(4)) — early-exiting on the first
//     violation with a counterexample path; properties are declarative
//     values of the bip/prop algebra (state predicates, safety-temporal
//     operators, observer automata), parseable from text with ParseProp;
//     Explore materializes the LTS when the whole graph is wanted.
//
// Deeper machinery lives in the subpackages: bip/check (streaming sinks,
// the materialized LTS, bisimulation, compositional D-Finder-style
// verification), bip/models (the model zoo), bip/distributed (the
// three-layer send/receive transformation), bip/lustre (synchronous
// data-flow embedding), and bip/bench (the paper-reproduction
// experiments). Everything under bip/internal is implementation.
package bip

import (
	"bip/internal/behavior"
	"bip/internal/core"
	"bip/internal/dsl"
	"bip/lint"
	"bip/prop"
)

// Model-building types, re-exported from the composition core.
type (
	// System is a flat BIP model: atoms glued by interactions filtered
	// by priorities. Build one with NewSystem or Parse.
	System = core.System
	// SystemBuilder assembles a System with a fluent API.
	SystemBuilder = core.SystemBuilder
	// Atom is an atomic component: an automaton with ports, variables
	// and guarded transitions. Build one with NewAtom.
	Atom = behavior.Atom
	// AtomBuilder assembles an Atom with a fluent API.
	AtomBuilder = behavior.Builder
	// Interaction is a multiparty synchronization over ports.
	Interaction = core.Interaction
	// Priority suppresses interaction Low while High is enabled (and the
	// optional When condition holds).
	Priority = core.Priority
	// PortRef names a port of a component instance ("comp.port").
	PortRef = core.PortRef
	// State is a global system state: per-component locations and
	// variable valuations.
	State = core.State
	// Move is one way an interaction can fire from a state.
	Move = core.Move
	// Connector is BIP's structured glue (rendezvous/broadcast); it
	// expands into feasible interactions plus maximal-progress
	// priorities.
	Connector = core.Connector
	// ConnectorEnd is one connector endpoint (trigger or synchron).
	ConnectorEnd = core.ConnectorEnd
	// InvariantChecker evaluates the atoms' designer-asserted invariants;
	// see System.NewInvariantChecker.
	InvariantChecker = core.InvariantChecker
)

// NewSystem starts building a system.
func NewSystem(name string) *SystemBuilder { return core.NewSystem(name) }

// NewAtom starts building an atomic component.
func NewAtom(name string) *AtomBuilder { return behavior.NewBuilder(name) }

// P is shorthand for building a PortRef.
func P(comp, port string) PortRef { return core.P(comp, port) }

// Rendezvous builds a strong-synchronization connector over the ports.
func Rendezvous(name string, refs ...PortRef) Connector { return core.Rendezvous(name, refs...) }

// Broadcast builds a connector with one trigger (the sender) and any
// number of synchron receivers.
func Broadcast(name string, sender PortRef, receivers ...PortRef) Connector {
	return core.Broadcast(name, sender, receivers...)
}

// Sync returns a synchron connector endpoint.
func Sync(comp, port string) ConnectorEnd { return core.Sync(comp, port) }

// Trig returns a trigger connector endpoint.
func Trig(comp, port string) ConnectorEnd { return core.Trig(comp, port) }

// Parse elaborates a program in the textual BIP dialect into a validated
// System.
func Parse(src string) (*System, error) { return dsl.Parse(src) }

// Diagnostic is one static-analysis finding from Lint, re-exported from
// bip/lint: a stable code (BIP001…), a severity, and — for DSL-built
// models — a source position.
type Diagnostic = lint.Diagnostic

// Lint statically analyzes a validated system without exploring it:
// unreachable locations, dead transitions and interactions,
// contradictory guards, disconnected ports, unused variables, dominated
// priorities, and reduction explainability. See bip/lint for the pass
// catalogue and code reference. Run it before Verify — it is orders of
// magnitude cheaper than exploration and catches defects that would
// otherwise burn a full state-space search.
func Lint(sys *System) ([]Diagnostic, error) { return lint.Analyze(sys) }

// ParseProp parses a textual property into the bip/prop algebra — the
// same syntax prop values render with String:
//
//	p, err := bip.ParseProp(`after(depart, until(at(door, closed), arrive))`)
//	rep, err := bip.Verify(sys, bip.Prop(p))
//
// Pass the result to the Prop option (optionally wrapped in Named); it
// is resolved and compiled against the system when Verify runs.
func ParseProp(src string) (prop.Prop, error) { return dsl.ParseProp(src) }
