package lts

import (
	"math/bits"

	"bip/internal/core"
)

// This file implements the observer-automaton (safety-temporal) checker:
// a Sink that decides, on the fly, whether any reachable path of the
// system drives a deterministic observer automaton into a bad state —
// the automaton-sink form the property algebra in bip/prop compiles to.
//
// The checker rides the same deterministic event stream as the other
// checkers, so one exploration answers automaton properties alongside
// deadlock/invariant/reach queries, and verdicts are worker-count
// independent. Unlike the state-predicate checkers it cannot run in
// O(frontier): a temporal property is a property of paths, and a system
// state reached along two different histories can carry two different
// observer states, so the checker computes product reachability — the
// set of (system state, observer state) pairs — incrementally over the
// stream. What it retains per visited state is a handful of 64-bit
// words (observer-state bitsets and pre-evaluated predicate bits) and
// per edge a compact pointer-free record (target id, interned label
// id); materialized states are still released with the frontier.
// That is O(V+E) machine words against the materialized LTS's O(V)
// full states plus O(E) edges plus the BFS tree, and early exit on the
// first violation still skips the space behind it.

// Observer is a compiled deterministic observer automaton over the
// exploration event stream. It observes the run as a sequence of state
// occurrences: first the initial state (the "initial pseudo-event"),
// then one (interaction label, target state) observation per transition.
// At each observation the observer takes the first rule of its current
// state whose event matcher accepts the label and whose state predicate
// holds on the observed state (first match wins — rule order makes the
// automaton deterministic even with overlapping guards); with no match
// it stays put. Reaching a Bad state is the violation.
//
// Rules are flattened into one global list so that a label resolves to
// a single bitset of matching rules (LabelBits) and a state resolves to
// a single bitset of holding predicates (PredBits) — Step is then a few
// word operations per observation with no name resolution. Observers
// are built by bip/prop's compiler; the limits (≤64 observer states,
// ≤64 rules) are enforced there.
type Observer struct {
	// NumStates is the number of observer states; observer-state bitsets
	// are uint64s, so it is at most 64.
	NumStates int
	// Init is the observer state before the initial observation.
	Init int
	// Bad is the bitset of violation states.
	Bad uint64
	// To is the target observer state of each global rule.
	To []int32
	// ByState lists each observer state's rule indices in priority
	// order.
	ByState [][]int32
	// Preds holds each rule's state predicate; nil means the rule is
	// unconditional. Predicates are slot-compiled closures over the
	// materialized state — they are evaluated once per admitted state
	// (PredBits), while the state is still materialized.
	Preds []func(*core.State) bool
	// LabelBits maps each interaction label to the bitset of rules whose
	// event matcher accepts it.
	LabelBits map[string]uint64
	// AnyBits is the rule bitset for labels missing from LabelBits (an
	// alphabet-closed stream never produces one; the fallback keeps the
	// checker total): exactly the rules that match every label.
	AnyBits uint64
	// InitBits is the bitset of rules that accept the initial
	// pseudo-event (the observation of the initial state, before any
	// interaction fired).
	InitBits uint64
}

// Step advances the observer from state q on an observation whose label
// matched evBits and whose state satisfied predBits, returning the next
// observer state (q itself when no rule matches).
func (o *Observer) Step(q int, evBits, predBits uint64) int {
	both := evBits & predBits
	for _, ri := range o.ByState[q] {
		if both&(1<<uint(ri)) != 0 {
			return int(o.To[ri])
		}
	}
	return q
}

// PredBits evaluates every rule predicate at st and returns the bitset
// of rules whose predicate holds (unconditional rules always hold).
func (o *Observer) PredBits(st *core.State) uint64 {
	var b uint64
	for i, p := range o.Preds {
		if p == nil || p(st) {
			b |= 1 << uint(i)
		}
	}
	return b
}

// EvBits returns the rule bitset matching an interaction label.
func (o *Observer) EvBits(label string) uint64 {
	if b, ok := o.LabelBits[label]; ok {
		return b
	}
	return o.AnyBits
}

// obsCell is the checker's per-system-state record: the observer states
// known to be reachable at the state, the subset already propagated
// through its outgoing edges, and the state's pre-evaluated predicate
// bits (the state itself is not retained).
type obsCell struct {
	obs  uint64
	done uint64
	pred uint64
}

// The per-edge and per-pair records below name the interaction label by
// its id in the check's label table (AutomatonCheck.labelID), so they
// hold no pointers: the GC neither scans the edge slices nor the parents
// map, and growing them pays no write barriers.

// aEdge is one recorded edge of the product propagation graph: target
// state and label id, 8 bytes.
type aEdge struct {
	to    int32
	label int32
}

// aParent is the product-BFS-tree edge of a (system state, observer
// state) pair: the pair that first produced it and the interaction
// label id of that step. The chain back to the initial pair is the
// counterexample path.
type aParent struct {
	state int32
	label int32
	obs   int8
}

// uaEdge is one recorded edge of the unordered propagation graph: the
// per-source edge lists are intrusive linked lists (heads/next) because
// an unordered stream interleaves sources arbitrarily, so a flat
// offsets table cannot be built. 12 bytes per edge.
type uaEdge struct {
	to    int32
	next  int32 // next edge of the same source; -1 ends the list
	label int32
}

// AutomatonCheck verifies an Observer property on the fly: it computes
// the reachable (system state, observer state) pairs incrementally over
// the event stream and settles with a counterexample path as soon as a
// pair with a bad observer state appears. Construct with
// NewAutomatonCheck. The verdict — the violating system state in
// propagation order and the product path to it — is deterministic and
// worker-count independent because the event stream is.
type AutomatonCheck struct {
	// Obs is the compiled observer; see bip/prop for the algebra that
	// builds one.
	Obs *Observer

	Verdict

	// labelIDs interns the interaction labels seen on the stream;
	// labels and evBits are indexed by label id (evBits[id] is
	// Obs.EvBits(labels[id]), resolved once per label).
	labelIDs map[string]int32
	labels   []string
	evBits   []uint64

	cells   []obsCell
	edges   []aEdge
	offsets []int32 // offsets[i]..offsets[i+1] bound state i's edges
	queue   []int32 // FIFO worklist of states with unpropagated bits
	parents map[uint64]aParent
	// expanded is the count of states whose edge lists are complete;
	// OnExpanded arrives in increasing id order, so ids < expanded are
	// safe to propagate through.
	expanded int

	// Unordered-stream mode (SetStreamOrder): edges become per-source
	// intrusive lists and propagation runs edge-by-edge as events
	// arrive — the same product fixpoint, reached in a
	// schedule-dependent order, so Found/Exhaustive are identical while
	// the particular bad pair (and path) may differ.
	unordered bool
	heads     []int32
	uEdges    []uaEdge
}

var (
	_ Sink      = (*AutomatonCheck)(nil)
	_ OrderSink = (*AutomatonCheck)(nil)
)

// NewAutomatonCheck returns a checker for the observer.
func NewAutomatonCheck(obs *Observer) *AutomatonCheck {
	return &AutomatonCheck{
		Obs:      obs,
		labelIDs: make(map[string]int32),
		offsets:  []int32{0},
		parents:  make(map[uint64]aParent),
	}
}

// labelID interns label, resolving its rule bitset on first sight.
func (c *AutomatonCheck) labelID(label string) int32 {
	if id, ok := c.labelIDs[label]; ok {
		return id
	}
	id := int32(len(c.labels))
	c.labelIDs[label] = id
	c.labels = append(c.labels, label)
	c.evBits = append(c.evBits, c.Obs.EvBits(label))
	return id
}

func pairKey(state int32, obs int) uint64 {
	return uint64(uint32(state))<<6 | uint64(obs)
}

// SetStreamOrder implements OrderSink: the unordered mode switches to
// per-source edge lists and event-driven propagation.
func (c *AutomatonCheck) SetStreamOrder(o Order) {
	c.unordered = o == Unordered
}

// OnState implements Sink: it pre-evaluates the rule predicates while
// the state is materialized and, for the initial state, performs the
// observer's initial observation. An unordered stream delivers ids in
// arbitrary (dense) order; OnState(0) is first either way.
func (c *AutomatonCheck) OnState(id int, st core.State, d Discovery) error {
	pred := c.Obs.PredBits(&st)
	if c.unordered {
		for len(c.cells) <= id {
			c.cells = append(c.cells, obsCell{})
			c.heads = append(c.heads, -1)
		}
		c.cells[id].pred = pred
	} else {
		c.cells = append(c.cells, obsCell{pred: pred})
	}
	if id == 0 {
		q0 := c.Obs.Step(c.Obs.Init, c.Obs.InitBits, pred)
		c.cells[0].obs = 1 << uint(q0)
		if c.Obs.Bad&(1<<uint(q0)) != 0 {
			return c.settleProduct(0, q0)
		}
		if c.unordered {
			c.queue = append(c.queue, 0)
			return c.drainU()
		}
	}
	return nil
}

// OnEdge implements Sink. Deterministic streams only record the edge;
// propagation runs at the source's OnExpanded, once its edge list is
// complete. Unordered streams have no such completion point, so the
// edge joins its source's list immediately and the bits the source
// already propagated elsewhere are pushed through it on the spot —
// every recorded edge has then seen every done bit, which keeps the
// incremental fixpoint exact under any event interleaving.
func (c *AutomatonCheck) OnEdge(from, to int, label string) error {
	id := c.labelID(label)
	if c.unordered {
		c.uEdges = append(c.uEdges, uaEdge{to: int32(to), next: c.heads[from], label: id})
		c.heads[from] = int32(len(c.uEdges) - 1)
		if done := c.cells[from].done; done != 0 {
			if err := c.pushBits(int32(from), done, &c.uEdges[len(c.uEdges)-1]); err != nil {
				return err
			}
			return c.drainU()
		}
		return nil
	}
	c.edges = append(c.edges, aEdge{to: int32(to), label: id})
	return nil
}

// OnExpanded implements Sink: on a deterministic stream, state id's
// edge list is now complete, so its accumulated observer states are
// propagated; the worklist re-runs any already-expanded state that
// gains observer states through back or cross edges, to the product
// fixpoint for the stream so far. Unordered streams propagate per edge
// instead and have nothing to do here.
func (c *AutomatonCheck) OnExpanded(id, moves int) error {
	if c.unordered {
		return nil
	}
	c.offsets = append(c.offsets, int32(len(c.edges)))
	c.expanded = id + 1
	c.queue = append(c.queue, int32(id))
	return c.drain()
}

// drain runs the FIFO worklist: for each queued state, the observer
// states not yet pushed through its edges step across each edge in
// order, claiming new (state, observer) pairs. The order — FIFO queue,
// edges in stream order, observer states in ascending order — is fully
// determined by the event stream, which makes the first bad pair (and
// its product path) deterministic.
func (c *AutomatonCheck) drain() error {
	for head := 0; head < len(c.queue); head++ {
		x := c.queue[head]
		cell := &c.cells[x]
		newBits := cell.obs &^ cell.done
		if newBits == 0 {
			continue
		}
		cell.done |= newBits
		for _, e := range c.edges[c.offsets[x]:c.offsets[x+1]] {
			tc := &c.cells[e.to]
			ev := c.evBits[e.label]
			for bs := newBits; bs != 0; bs &= bs - 1 {
				q := bits.TrailingZeros64(bs)
				q2 := c.Obs.Step(q, ev, tc.pred)
				if tc.obs&(1<<uint(q2)) != 0 {
					continue
				}
				tc.obs |= 1 << uint(q2)
				c.parents[pairKey(e.to, q2)] = aParent{state: x, obs: int8(q), label: e.label}
				if c.Obs.Bad&(1<<uint(q2)) != 0 {
					c.queue = c.queue[:0]
					return c.settleProduct(int(e.to), q2)
				}
				if int(e.to) < c.expanded {
					c.queue = append(c.queue, e.to)
				}
			}
		}
	}
	c.queue = c.queue[:0]
	return nil
}

// pushBits steps the source's bit set across one edge, claiming any new
// (state, observer) pairs: the per-edge propagation primitive of the
// unordered mode.
func (c *AutomatonCheck) pushBits(from int32, bs uint64, e *uaEdge) error {
	tc := &c.cells[e.to]
	ev := c.evBits[e.label]
	for ; bs != 0; bs &= bs - 1 {
		q := bits.TrailingZeros64(bs)
		q2 := c.Obs.Step(q, ev, tc.pred)
		if tc.obs&(1<<uint(q2)) != 0 {
			continue
		}
		tc.obs |= 1 << uint(q2)
		c.parents[pairKey(e.to, q2)] = aParent{state: from, obs: int8(q), label: e.label}
		if c.Obs.Bad&(1<<uint(q2)) != 0 {
			c.queue = c.queue[:0]
			return c.settleProduct(int(e.to), q2)
		}
		c.queue = append(c.queue, e.to)
	}
	return nil
}

// drainU runs the unordered worklist: each queued state pushes its
// not-yet-propagated observer states through every edge recorded for it
// so far (edges recorded later catch up in OnEdge). Same fixpoint as
// drain, reached in a schedule-dependent order.
func (c *AutomatonCheck) drainU() error {
	for head := 0; head < len(c.queue); head++ {
		x := c.queue[head]
		cell := &c.cells[x]
		newBits := cell.obs &^ cell.done
		if newBits == 0 {
			continue
		}
		cell.done |= newBits
		for ei := c.heads[x]; ei >= 0; ei = c.uEdges[ei].next {
			if err := c.pushBits(x, newBits, &c.uEdges[ei]); err != nil {
				return err
			}
		}
	}
	c.queue = c.queue[:0]
	return nil
}

// settleProduct records the verdict: the violating system state and the
// interaction path reconstructed from the product BFS tree (a path that
// both exists in the system and drives the observer to the bad state —
// the discovery-tree path of the state alone need not). The propagation
// tables are released; the check is settled.
func (c *AutomatonCheck) settleProduct(state, obs int) error {
	c.Found = true
	c.State = state
	var labels []string
	s, q := int32(state), obs
	for {
		p, ok := c.parents[pairKey(s, q)]
		if !ok {
			break // the initial pair has no parent
		}
		labels = append(labels, c.labels[p.label])
		s, q = p.state, int(p.obs)
	}
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
	}
	c.Path = labels
	c.release()
	return ErrStop
}

// Done implements Sink: with full coverage the product fixpoint is
// complete, so the absence of a bad pair is conclusive.
func (c *AutomatonCheck) Done(truncated bool) error {
	c.release()
	return c.Verdict.Done(truncated)
}

// release drops the propagation tables once the check can no longer be
// fed events.
func (c *AutomatonCheck) release() {
	c.cells, c.edges, c.offsets, c.queue, c.parents = nil, nil, nil, nil, nil
	c.heads, c.uEdges = nil, nil
	c.labelIDs, c.labels, c.evBits = nil, nil, nil
}
