package bip

import (
	"context"
	"fmt"
	"time"

	"bip/internal/lts"
	"bip/prop"
)

// Stats is a cumulative snapshot of a running exploration, delivered to
// WithProgress observers (check.Stats is the same type). It marshals to
// JSON — bipd streams it as progress events.
type Stats = lts.Stats

// Verify streams the reachable state space of sys through on-the-fly
// checkers selected by functional options:
//
//	rep, err := bip.Verify(sys,
//	    bip.Deadlock(),
//	    bip.Prop(prop.Never(prop.And(
//	        prop.At("phil0", "eating"), prop.At("phil1", "eating")))),
//	    bip.Named("door-safety", bip.Prop(prop.After(prop.On("depart"),
//	        prop.Until(prop.At("door", "closed"), prop.On("arrive"))))),
//	    bip.Workers(4),
//	    bip.MaxStates(1<<22))
//
// One exploration answers every requested property. Properties are
// values of the bip/prop algebra (Prop), textual properties parsed by
// ParseProp, or — as thin adapters over the same machinery — the
// opaque func(State) bool forms (Invariant, Reach). Each checker
// early-exits on the first violation it finds, and the exploration
// stops as soon as every property is settled — a model that violates
// early is verified without materializing (or even visiting) the rest
// of its state space. Pure state properties run in O(frontier) live
// memory; temporal/observer properties additionally keep compact
// per-state/per-edge words for the product fixpoint (see
// check.AutomatonCheck). With no property options, Verify checks
// deadlock-freedom.
//
// Every property gets a report name: its algebra kind ("deadlock",
// "always", "after", ...) or the explicit name given with Named.
// Duplicate names are auto-suffixed "#2", "#3", ... in option order, so
// Report.Property can always address each verdict individually.
//
// Verdicts are deterministic and worker-count independent: under the
// default order the exploration is sequential whatever Workers says, so
// the reported states and counterexample paths are bit-identical to the
// corresponding analyses on the materialized LTS (check.Explore), which
// the differential tests pin. Runs that only need the verdicts can opt
// into the barrier-free work-stealing explorer with Unordered — the only
// order Workers speeds up: violated/conclusive and path validity are
// unaffected, only the particular witness may vary.
func Verify(sys *System, opts ...Option) (*Report, error) {
	cfg := verifyConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.specs) == 0 {
		Deadlock()(&cfg)
	}
	props := make([]property, len(cfg.specs))
	sinks := make([]lts.Sink, len(cfg.specs))
	names := uniqueNames(cfg.specs)
	for i, spec := range cfg.specs {
		p, err := spec.build(sys)
		if err != nil {
			return nil, fmt.Errorf("bip: verify %s: property %s: %w", sys.Name, names[i], err)
		}
		props[i] = p
		sinks[i] = p.sink
	}
	var expander lts.Expander
	var degradedBy string
	progress := cfg.lts.Progress
	if cfg.reduce {
		var vis lts.Visibility
		for _, p := range props {
			vis = vis.Union(p.visible)
		}
		// A property that declares full visibility (opaque Fn predicates,
		// explicit automata, step-counting event forms) cannot be checked
		// on a reduced graph: degrade the whole run to full expansion
		// rather than risk the verdict. Report.Reduced records what
		// actually happened, and ReductionDegradedBy names the first
		// property responsible so the degradation is never silent.
		if !vis.All {
			exp, err := lts.NewAmpleExpander(sys, vis)
			if err != nil {
				return nil, fmt.Errorf("bip: verify %s: reduction: %w", sys.Name, err)
			}
			expander = exp
		} else {
			for i, p := range props {
				if p.visible.All {
					degradedBy = names[i]
					break
				}
			}
			if progress != nil {
				// Progress snapshots are the wire shape bipd streams;
				// stamp the degradation cause on each one too.
				inner := progress
				progress = func(s Stats) {
					s.ReductionDegradedBy = degradedBy
					inner(s)
				}
			}
		}
	}
	o := cfg.lts
	o.Expander, o.Progress = expander, progress
	stats, err := lts.Stream(sys, o, lts.NewMulti(sinks...))
	if err != nil {
		return nil, fmt.Errorf("bip: verify %s: %w", sys.Name, err)
	}
	rep := &Report{
		States:              stats.States,
		Transitions:         stats.Transitions,
		Truncated:           stats.Truncated,
		Reduced:             expander != nil,
		AmpleStates:         stats.AmpleStates,
		PrunedMoves:         stats.PrunedMoves,
		ProvisoFallbacks:    stats.ProvisoFallbacks,
		SeenBytes:           stats.SeenBytes,
		PeakFrontierBytes:   stats.PeakFrontierBytes,
		SpilledChunks:       stats.SpilledChunks,
		ReductionDegradedBy: degradedBy,
		OK:                  true,
	}
	for i, p := range props {
		res := p.result()
		res.Name = names[i]
		rep.Properties = append(rep.Properties, res)
		if res.Violated || !res.Conclusive {
			rep.OK = false
		}
	}
	return rep, nil
}

// uniqueNames resolves the report names: the spec's own name (kind or
// Named override), with duplicates auto-suffixed "#2", "#3", ... in
// option order.
func uniqueNames(specs []propSpec) []string {
	names := make([]string, len(specs))
	count := make(map[string]int, len(specs))
	for i, s := range specs {
		count[s.name]++
		if n := count[s.name]; n > 1 {
			names[i] = fmt.Sprintf("%s#%d", s.name, n)
		} else {
			names[i] = s.name
		}
	}
	return names
}

// Explore materializes the reachable LTS of sys — the full graph for
// analyses that need it (bisimulation, label sets, arbitrary queries).
// Prefer Verify when only property verdicts are wanted: the streaming
// checkers answer those without retaining the state space. Every
// exploration option applies here (Workers, Unordered, MaxStates,
// CompactSeen, MemBudget, WithContext, WithProgress, and Reduce, which
// Explore runs deadlock-preserving); passing a property option
// (Deadlock, Prop, …) is an error rather than a silently dropped check.
func Explore(sys *System, opts ...Option) (*lts.LTS, error) {
	cfg := verifyConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.specs) > 0 {
		return nil, fmt.Errorf("bip: explore %s: property options are Verify-only (got %d); call Verify for on-the-fly checks", sys.Name, len(cfg.specs))
	}
	var expander lts.Expander
	if cfg.reduce {
		// No properties ride an Explore, so nothing is visible: maximal,
		// deadlock-preserving reduction (see the Reduce doc's caveat about
		// querying the reduced graph).
		exp, err := lts.NewAmpleExpander(sys, lts.Visibility{})
		if err != nil {
			return nil, fmt.Errorf("bip: explore %s: reduction: %w", sys.Name, err)
		}
		expander = exp
	}
	o := cfg.lts
	o.Expander = expander
	return lts.Explore(sys, o)
}

// Option configures Verify and Explore.
type Option func(*verifyConfig)

// verifyConfig collects the options: the exploration settings are
// written straight into the driver's lts.Options, of which Verify and
// Explore set only the expansion stage (and Verify the wrapped Progress).
type verifyConfig struct {
	lts    lts.Options
	reduce bool
	specs  []propSpec
}

// propSpec is one requested property: its report name plus the deferred
// compilation against the system (Verify time), so options need no
// system argument and compile errors surface with the property's name.
type propSpec struct {
	name  string
	build func(sys *System) (property, error)
}

// property couples a streaming checker with the extraction of its
// verdict once the exploration returns, plus the visibility the checker
// declares for ample-set reduction (see Reduce).
type property struct {
	sink    lts.Sink
	visible lts.Visibility
	result  func() Property
}

// Workers sets the number of work-stealing exploration workers under
// Unordered (negative means GOMAXPROCS). Under the default
// deterministic order the exploration is sequential whatever n is. The
// verdicts do not depend on it.
func Workers(n int) Option { return func(c *verifyConfig) { c.lts.Workers = n } }

// Unordered selects the work-stealing exploration order for a
// multi-worker run — the fast path for on-the-fly verification, whose
// verdicts (violated / conclusive) never depended on stream order. The
// default (deterministic) order runs the sequential explorer at any
// worker count for bit-identical reports; Unordered spreads the work
// over Workers(n) with no barrier on the hot path. What can
// change under Unordered: state numbering (Report.Property State
// fields), WHICH counterexample is reported when several exist, and the
// exploration's internal event order. What cannot: whether each
// property is violated, whether it is conclusive, the visited state
// set, and the validity of every reported path. With Workers(1) it
// changes nothing unless MemBudget is set too: a budget then runs the
// work-stealing deques at one worker, so that they can spill.
func Unordered() Option { return func(c *verifyConfig) { c.lts.Order = lts.Unordered } }

// MaxStates bounds the exploration; 0 means the shared library default
// (check.DefaultMaxStates). Hitting the bound makes absence verdicts
// inconclusive, which the Report records.
func MaxStates(n int) Option { return func(c *verifyConfig) { c.lts.MaxStates = n } }

// CompactSeen swaps the exploration's visited-state storage for the
// hash-compacted seen set: an 8-byte hash per visited state instead of
// the full binary key. With the table that is 18.5 B/state against
// 101.3 sequentially on CounterGrid(7,5), whose keys are 91 bytes
// (5.5x), and 30.2 against 110.0 under four workers (Report.SeenBytes
// shows the actual footprint). The trade is the classic
// hash-compaction one (Wolper–Leroy / Stern–Dill): two distinct states
// are identified only if their full 64-bit hashes collide, an event of
// probability ~ n^2 * 2^-64 over n visited states — about 10^-8 at a
// billion states. Verdicts, counterexample paths
// and state counts are otherwise bit-identical to the exact default;
// the differential tests pin this across worker counts and both
// exploration orders.
func CompactSeen() Option {
	return func(c *verifyConfig) { c.lts.Seen = lts.CompactSeen{} }
}

// MemBudget caps the frontier's resident memory (bytes, accounted by a
// deterministic per-entry model — see Report.PeakFrontierBytes). Under
// Unordered exploration, at any worker count, frontier chunks beyond the
// budget spill to a temporary file as flat binary state keys and stream
// back as workers drain; Report.SpilledChunks counts the round trips. The
// visited-state verdict contract is unchanged — spilled states decode
// bit-identically. Zero (the default) means no budget; the option has
// no effect on the deterministic order, whose sequential explorer keeps
// its frontier resident.
func MemBudget(bytes int64) Option {
	return func(c *verifyConfig) { c.lts.MemBudget = bytes }
}

// WithContext attaches a cancellation context to the exploration: every
// worker polls it once per expansion, and Verify returns ctx.Err()
// promptly when it fires, making long verification runs abortable
// (timeouts, server shutdown).
func WithContext(ctx context.Context) Option {
	return func(c *verifyConfig) { c.lts.Ctx = ctx }
}

// WithProgress installs fn as a periodic observer of the running
// exploration: at most once per `every` (0 means the engine default,
// 100ms) it receives a cumulative Stats snapshot — states, transitions,
// memory accounting — while the run is still going. This is the hook
// bipd's progress streaming rides. The callback must return quickly;
// it is invoked between state expansions by whichever exploration
// worker finishes one, so under Unordered multi-worker exploration it
// may run concurrently with the exploration itself (never with another
// invocation of fn) and must be safe to call from a different
// goroutine than Verify's. There is no guaranteed final call:
// the returned Report carries the authoritative totals.
func WithProgress(every time.Duration, fn func(Stats)) Option {
	return func(c *verifyConfig) {
		c.lts.Progress = fn
		c.lts.ProgressEvery = every
	}
}

// Reduce requests ample-set partial-order reduction: at states where
// some connector-cluster's enabled interactions form a persistent set
// invisible to every requested property, only that subset is explored.
// Commuting interleavings of independent interactions collapse, often
// shrinking the visited state count by orders of magnitude on loosely
// coupled systems, while every requested verdict — deadlock included —
// is provably unchanged; the differential tests pin this across worker
// counts and both exploration orders.
//
// Reduction is visibility-driven and therefore property-aware: each
// compiled property declares the interaction labels it observes and the
// atoms its predicates read, and moves involving them are never pruned.
// Properties with no structural visibility — opaque func(State) bool
// predicates (Invariant, Reach, prop.Fn), explicit prop.Automaton
// observers, and step-counting event forms (prop.NotOn, prop.AnyEvent
// as an Until/After/Between trigger) — cannot bound what they read, so
// a run containing one degrades to full expansion rather than risk the
// verdict. Report.Reduced records whether reduction actually ran;
// AtomInvariants stays reducible (its visibility is the atoms that
// declare invariants).
//
// Under Reduce the reported States/Transitions counts describe the
// reduced graph, so they vary with the property set — and, under
// Unordered, with scheduling. Violated/Conclusive verdicts and path
// validity do not. With Explore, Reduce applies deadlock-preserving
// reduction (empty visibility): the materialized LTS keeps every
// reachable deadlock (and each pruned state's full enabled count feeds
// the deadlock test) but is NOT the full graph — don't run arbitrary
// state queries on it.
func Reduce() Option { return func(c *verifyConfig) { c.reduce = true } }

// Prop requests an on-the-fly check of a declarative property from the
// bip/prop algebra (or ParseProp). The property is compiled against
// the system when Verify runs: state predicates become slot-resolved
// closures, temporal operators become an observer automaton checked as
// the state space streams by. Its report name is the property's kind
// (prop.Prop.Kind); wrap with Named to override.
func Prop(p prop.Prop) Option {
	return func(c *verifyConfig) {
		c.specs = append(c.specs, propSpec{name: p.Kind(), build: func(sys *System) (property, error) {
			return compileProp(sys, p)
		}})
	}
}

// Named overrides the report name of the property option it wraps:
//
//	bip.Named("mutex", bip.Prop(prop.Never(...)))
//
// Distinct names keep Report.Property unambiguous when several options
// share a kind (unnamed duplicates are auto-suffixed instead). Wrapping
// a non-property option (Workers, MaxStates, …) applies it unchanged —
// there is no property to name, so the name is dropped.
func Named(name string, opt Option) Option {
	return func(c *verifyConfig) {
		before := len(c.specs)
		opt(c)
		for i := before; i < len(c.specs); i++ {
			c.specs[i].name = name
		}
	}
}

// compileProp compiles an algebra property into its checker sink and
// verdict extraction.
func compileProp(sys *System, p prop.Prop) (property, error) {
	cp, err := prop.Compile(sys, p)
	if err != nil {
		return property{}, err
	}
	v := cp.Verdict
	return property{
		sink:    cp.Sink,
		visible: cp.Visible,
		result: func() Property {
			return Property{
				Violated:   v.Found,
				State:      v.State,
				Path:       v.Path,
				Conclusive: v.Found || v.Exhaustive,
			}
		},
	}, nil
}

// Deadlock requests an on-the-fly deadlock-freedom check
// (prop.DeadlockFree). A reachable deadlock is reported with its
// counterexample path; the check is then settled and stops consuming
// the exploration.
func Deadlock() Option {
	return func(c *verifyConfig) {
		c.specs = append(c.specs, propSpec{name: "deadlock", build: func(sys *System) (property, error) {
			return compileProp(sys, prop.DeadlockFree())
		}})
	}
}

// Invariant requests an on-the-fly check that pred holds on every
// reachable state: the thin adapter lifting an opaque Go predicate into
// prop.Always(prop.Fn(pred)). Declarative predicates (Property with
// prop.Always) serialize and compile; use them when the predicate is
// expressible. The first violating state (in exploration order) is
// reported with its counterexample path.
func Invariant(pred func(State) bool) Option {
	return func(c *verifyConfig) {
		c.specs = append(c.specs, propSpec{name: "invariant", build: func(sys *System) (property, error) {
			return compileProp(sys, prop.Always(prop.Fn(pred)))
		}})
	}
}

// AtomInvariants requests an on-the-fly check of the designer-asserted
// per-component invariants (evaluated through their slot-compiled
// forms).
func AtomInvariants() Option {
	return func(c *verifyConfig) {
		c.specs = append(c.specs, propSpec{name: "atom-invariants", build: func(sys *System) (property, error) {
			chk := sys.NewInvariantChecker()
			p, err := compileProp(sys, prop.Always(prop.Fn(func(st State) bool { return chk.Check(st) == nil })))
			if err != nil {
				return p, err
			}
			// The opaque closure defaults to full visibility, but what it
			// reads is known exactly: the atoms that declare invariants.
			// Declaring them keeps the check sound under Reduce.
			var vis lts.Visibility
			for ai, a := range sys.Atoms {
				if len(a.Invariants) > 0 {
					vis.Atoms = append(vis.Atoms, ai)
				}
			}
			p.visible = vis
			return p, nil
		}})
	}
}

// Reach requests an on-the-fly bad-state reachability query — the thin
// adapter for prop.Reachable(prop.Fn(pred)): the first state satisfying
// pred is reported with its witness path, and Violated is set (reaching
// the target counts against Report.OK). With full coverage and no hit,
// the target is proved unreachable.
func Reach(pred func(State) bool) Option {
	return func(c *verifyConfig) {
		c.specs = append(c.specs, propSpec{name: "reach", build: func(sys *System) (property, error) {
			return compileProp(sys, prop.Reachable(prop.Fn(pred)))
		}})
	}
}

// Property is the outcome of one requested check. Like Report it is
// JSON-round-trippable — the tags are bipd's wire shape; keep them
// stable.
type Property struct {
	// Name identifies the check: the property kind ("deadlock",
	// "invariant", "always", "after", ...), a Named override, or a
	// "#n"-suffixed form when several options share a name.
	Name string `json:"name"`
	// Violated reports a definite violation — a reachable deadlock, a
	// state breaking a safety property or, for Reach/Reachable, the
	// target being found.
	Violated bool `json:"violated"`
	// State is the id (exploration order) of the violating/target state;
	// meaningful when Violated.
	State int `json:"state"`
	// Path is the interaction sequence leading from the initial state to
	// State; meaningful when Violated. For temporal properties it is the
	// product path — a run that both exists in the system and drives the
	// observer to its bad state.
	Path []string `json:"path,omitempty"`
	// Conclusive reports that the verdict is definite: either a
	// violation was found, or the full state space was covered without
	// one. It is false when the MaxStates bound (or another property's
	// early stop ending the exploration) left the check unsettled.
	Conclusive bool `json:"conclusive"`
}

// Report is the outcome of a Verify run. It is JSON-round-trippable
// (every field carries a wire tag): bipd serves completed Reports over
// HTTP and caches them by content address, so the struct doubles as a
// wire shape shared with external tooling — keep the tags stable.
type Report struct {
	// Properties holds one entry per requested check, in option order.
	Properties []Property `json:"properties"`
	// States and Transitions count what the exploration visited before
	// finishing or stopping early.
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	// Truncated reports that the MaxStates bound cut the exploration.
	Truncated bool `json:"truncated"`
	// Reduced reports that ample-set reduction was active: Reduce() was
	// requested AND every property's visibility admitted it. When a
	// property forces full visibility (opaque predicates, automata), the
	// run silently degrades to full expansion and Reduced stays false.
	Reduced bool `json:"reduced"`
	// AmpleStates counts states expanded with a strict ample subset,
	// PrunedMoves the enabled moves reduction skipped at them, and
	// ProvisoFallbacks the states escalated back to full expansion by the
	// cycle proviso. All zero unless Reduced.
	AmpleStates      int `json:"ample_states"`
	PrunedMoves      int `json:"pruned_moves"`
	ProvisoFallbacks int `json:"proviso_fallbacks"`
	// SeenBytes is the visited-state storage footprint at the end of the
	// run (slot tables, key arenas, hash/id records) — the number
	// CompactSeen shrinks. PeakFrontierBytes is the frontier's resident
	// high-water mark under the drivers' deterministic per-entry
	// accounting model; MemBudget bounds it.
	SeenBytes         int64 `json:"seen_bytes"`
	PeakFrontierBytes int64 `json:"peak_frontier_bytes"`
	// SpilledChunks counts frontier chunks written to the spill file
	// under MemBudget.
	SpilledChunks int64 `json:"spilled_chunks"`
	// ReductionDegradedBy names the first property whose full
	// visibility forced a Reduce() run back to full expansion (empty
	// when reduction ran, or was never requested) — the degradation is
	// reported, never silent.
	ReductionDegradedBy string `json:"reduction_degraded_by,omitempty"`
	// OK is true when every property is conclusive and none is violated.
	OK bool `json:"ok"`
}

// Property returns the named property's outcome.
func (r *Report) Property(name string) (Property, bool) {
	for _, p := range r.Properties {
		if p.Name == name {
			return p, true
		}
	}
	return Property{}, false
}

// String renders a one-line summary per property.
func (r *Report) String() string {
	out := fmt.Sprintf("verified %d states, %d transitions", r.States, r.Transitions)
	if r.Reduced {
		out += fmt.Sprintf(" (reduced: %d ample states, %d moves pruned, %d proviso fallbacks)",
			r.AmpleStates, r.PrunedMoves, r.ProvisoFallbacks)
	}
	if r.ReductionDegradedBy != "" {
		out += fmt.Sprintf(" (reduction degraded to full expansion by property %s)", r.ReductionDegradedBy)
	}
	for _, p := range r.Properties {
		switch {
		case p.Violated:
			out += fmt.Sprintf("; %s VIOLATED at state %d via %v", p.Name, p.State, p.Path)
		case p.Conclusive:
			out += fmt.Sprintf("; %s ok", p.Name)
		default:
			out += fmt.Sprintf("; %s inconclusive", p.Name)
		}
	}
	return out
}
