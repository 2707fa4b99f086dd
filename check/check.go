// Package check exposes the verification machinery underneath
// bip.Verify: the streaming exploration loop and its Sink
// interface, the composable on-the-fly checkers, the materialized LTS
// with its analyses (reachability, bisimulation, trace inclusion), and
// the compositional D-Finder-style verifier that proves deadlock-freedom
// without touching the product state space.
//
// The streaming surface is the one to build on: Stream drives an
// exploration into any Sink. Every exploration runs one worker loop,
// and only its frontier varies: under the default Deterministic order,
// at any worker count, one worker drains a FIFO queue in breadth-first
// order; under Unordered with Workers > 1, or with a MemBudget at any
// worker count (only the deques spill), the workers share chunked
// work-stealing deques, with the same state set and verdicts but state
// numbering and event order that depend on scheduling. A Sink
// observes OnState / OnEdge / OnExpanded / Done events under one relaxed
// contract that both orders satisfy (see Sink), so no sink is told
// which order it is fed, and may stop the exploration early by
// returning ErrStop. Checkers retain no states and capture
// counterexample paths from the run's id-indexed BFS tree
// (Discovery.Path), 8 bytes per admitted state; the observer checker
// (AutomatonCheck) also keeps 32 bytes per state, 12 per edge and 16
// per claimed product pair for its propagation. Explore materializes the whole graph by
// running the LTS itself as the sink, whose PathTo reads the same tree.
package check

import (
	"bip"
	"bip/internal/invariant"
	"bip/internal/lts"
	"bip/lint"
)

// Streaming exploration surface.
type (
	// Sink consumes the exploration event stream; see the field and
	// method contracts on the underlying type.
	Sink = lts.Sink
	// Discovery describes how a state was first reached and yields its
	// path from the initial state.
	Discovery = lts.Discovery
	// Options configures an exploration (bound, raw semantics, workers,
	// stream order).
	Options = lts.Options
	// Order selects the exploration loop's frontier: Deterministic
	// runs one worker on the FIFO queue at any worker count; Unordered
	// with Workers > 1 or a MemBudget (even at one worker) runs the
	// workers on work-stealing deques.
	Order = lts.Order
	// Stats summarizes a streaming run, including the peak-frontier
	// memory high-water mark.
	Stats = lts.Stats
	// Verdict is the outcome block embedded by every checker (Found,
	// State, Path, Exhaustive).
	Verdict = lts.Verdict
	// DeadlockCheck detects reachable deadlocks on the fly.
	DeadlockCheck = lts.DeadlockCheck
	// InvariantCheck verifies a state predicate on the fly.
	InvariantCheck = lts.InvariantCheck
	// ReachCheck searches for a target state on the fly.
	ReachCheck = lts.ReachCheck
	// Observer is a compiled deterministic observer automaton — the
	// form the bip/prop algebra's safety-temporal operators compile to.
	Observer = lts.Observer
	// AutomatonCheck verifies an Observer property on the fly by
	// incremental product reachability over the event stream.
	AutomatonCheck = lts.AutomatonCheck
	// Multi fans the event stream out to several sinks.
	Multi = lts.Multi
	// SeenSet is one dedup stripe of the pluggable seen-set layer
	// (Options.Seen): the mapping from visited-state keys to state ids.
	SeenSet = lts.SeenSet
	// SeenSets builds the per-stripe SeenSet instances of one
	// exploration; nil Options.Seen means ExactSeen.
	SeenSets = lts.SeenSets
	// ExactSeen selects exact dedup (the default): full binary keys in
	// chunked arenas, keyWidth + ~10 bytes per visited state at one
	// worker and ~19 under several.
	ExactSeen = lts.ExactSeen
	// CompactSeen selects hash-compacted dedup: an 8-byte hash per
	// visited state independent of key width (18.5 B/state with the
	// table at one worker, 30.2 under four, on CounterGrid(7,5)), exact
	// up to 64-bit hash collisions.
	CompactSeen = lts.CompactSeen
	// Expander plugs a successor-selection policy into the drivers
	// (Options.Expander); nil means full expansion.
	Expander = lts.Expander
	// WorkerExpander is the per-goroutine face of an Expander.
	WorkerExpander = lts.WorkerExpander
	// Visibility declares what an ample-set reduction must preserve: the
	// interaction labels a property observes and the atoms whose state
	// its predicates read. The zero value (nothing visible) yields
	// maximal, deadlock-preserving reduction.
	Visibility = lts.Visibility
	// AmpleExpander is the ample-set partial-order reducer; build one
	// with NewAmpleExpander.
	AmpleExpander = lts.AmpleExpander
	// LTS is the materialized state space and its analyses.
	LTS = lts.LTS
	// Edge is an outgoing transition of an explored state.
	Edge = lts.Edge
	// Relabel maps transition labels for comparison purposes
	// (bisimulation, trace inclusion).
	Relabel = lts.Relabel
)

// ErrStop is the sentinel a Sink returns to end exploration early
// without error.
var ErrStop = lts.ErrStop

// Stream-order constants; see Order.
const (
	// Deterministic (the zero value, so the default) runs one worker
	// on the FIFO frontier whatever the worker count, so the event
	// stream is bit-identical at any Workers.
	Deterministic = lts.Deterministic
	// Unordered lets workers emit events as expansion completes: the
	// same state set, edges, truncation flag and checker verdicts, with
	// scheduling-dependent numbering — the fast path for verification
	// runs that only need verdicts. It takes effect with Workers > 1 or
	// a MemBudget; a one-worker run without a budget is deterministic.
	Unordered = lts.Unordered
)

// DefaultMaxStates is the exploration bound applied when
// Options.MaxStates is zero — shared by the library and the command-line
// tools.
const DefaultMaxStates = lts.DefaultMaxStates

// Stream explores the reachable state space of sys breadth-first and
// feeds the deterministic event stream to sink.
func Stream(sys *bip.System, opts Options, sink Sink) (Stats, error) {
	return lts.Stream(sys, opts, sink)
}

// Explore materializes the reachable LTS of sys (the LTS is just one
// sink over the same stream).
func Explore(sys *bip.System, opts Options) (*LTS, error) {
	return lts.Explore(sys, opts)
}

// NewMulti combines sinks so one exploration answers many queries; see
// Multi.
func NewMulti(sinks ...Sink) *Multi { return lts.NewMulti(sinks...) }

// NewAmpleExpander builds the ample-set partial-order reducer for sys:
// plug the result into Options.Expander to explore a property-preserving
// subset of the state space. vis lists what the run's consumers observe
// (never pruned); it is rejected if vis.All or if it names unknown
// labels/atoms. Most callers go through bip.Reduce, which derives vis
// from the compiled properties.
func NewAmpleExpander(sys *bip.System, vis Visibility) (*AmpleExpander, error) {
	return lts.NewAmpleExpander(sys, vis)
}

// NewAutomatonCheck returns a checker for a compiled observer. Most
// callers go through bip.Verify with a bip/prop property instead;
// prop.Compile is what builds the Observer.
func NewAutomatonCheck(obs *Observer) *AutomatonCheck { return lts.NewAutomatonCheck(obs) }

// Bisimilar decides strong bisimilarity of the initial states of two
// materialized LTSs after relabeling.
func Bisimilar(a, b *LTS, ra, rb Relabel) bool { return lts.Bisimilar(a, b, ra, rb) }

// ObsTraceIncluded decides observational (weak) trace inclusion of a in
// b after relabeling, returning a distinguishing trace on failure.
func ObsTraceIncluded(a, b *LTS, ra, rb Relabel) (bool, []string) {
	return lts.ObsTraceIncluded(a, b, ra, rb)
}

// Identity observes every label as itself.
func Identity(label string) (string, bool) { return lts.Identity(label) }

// Hide returns a Relabel silencing the listed labels.
func Hide(hidden ...string) Relabel { return lts.Hide(hidden...) }

// MapLabels returns a Relabel applying the mapping; labels mapped to ""
// become silent.
func MapLabels(m map[string]string) Relabel { return lts.MapLabels(m) }

// Compositional verification (the paper's D-Finder method, §5.6):
// deadlock-freedom from component invariants, trap-based interaction
// invariants and a SAT check, never exploring the product state space.
type (
	// CompositionalOptions configures the compositional verifier.
	CompositionalOptions = invariant.Options
	// CompositionalResult is its outcome: a proof or an irrefutable
	// candidate deadlock (inconclusive).
	CompositionalResult = invariant.Result
	// PlaceRef names a control location in the Petri-net abstraction.
	PlaceRef = invariant.PlaceRef
)

// Compositional runs the compositional deadlock-freedom analysis.
func Compositional(sys *bip.System, opts CompositionalOptions) (*CompositionalResult, error) {
	return invariant.Verify(sys, opts)
}

// Diagnostic is one static-analysis finding from Lint (bip/lint).
type Diagnostic = lint.Diagnostic

// Lint statically analyzes a validated system without exploring it —
// the cheap admission filter to run before Stream/Explore/Compositional.
// See bip/lint for the pass catalogue and diagnostic code reference.
func Lint(sys *bip.System) ([]Diagnostic, error) { return lint.Analyze(sys) }

// FormatCompositional renders a compositional result for tool output.
func FormatCompositional(r *CompositionalResult) string { return invariant.FormatResult(r) }
