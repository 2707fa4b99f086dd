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
// words (observer-state bitsets and pre-evaluated predicate bits), per
// edge a compact pointer-free record (target id, interned label id) and
// per claimed pair its product-BFS-tree edge, all in append-only
// chunked tables; materialized states are still released with the
// frontier.
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
// through its outgoing edges, the state's pre-evaluated predicate bits
// (the state itself is not retained), the head of its pair list and
// where its edges are. 32 bytes, no pointers.
type obsCell struct {
	obs  uint64
	done uint64
	pred uint64
	// pairs heads the state's list in the pair table, one entry per
	// claimed observer state but the initial pair's (index + 1; 0 ends
	// the list), so at most popcount(obs) entries.
	pairs int32
	// edges locates the state's recorded edges. On a deterministic
	// stream it is the end of the state's range in edges, which starts
	// at the previous state's end; on an unordered stream it heads the
	// state's list in uEdges (index + 1; 0 ends the list).
	edges int32
}

// The per-edge and per-pair records below name the interaction label by
// its id in the check's label table (AutomatonCheck.labelID), and link
// records by index, so they hold no pointers: the GC scans none of the
// tables, and growing them pays no write barriers.

// aEdge is one recorded edge of the product propagation graph: target
// state and label id, 8 bytes.
type aEdge struct {
	to    int32
	label int32
}

// aPair is a claimed (system state, observer state) pair with its
// product-BFS-tree edge: the pair that first produced it and the
// interaction label id of that step. The chain back to the initial pair
// is the counterexample path. 16 bytes.
type aPair struct {
	from    int32 // the parent pair's system state
	label   int32
	next    int32 // next pair of the same state (index + 1; 0 ends the list)
	obs     int8  // this pair's observer state
	fromObs int8  // the parent pair's observer state
}

// uaEdge is one recorded edge of the unordered propagation graph: the
// per-source edge lists are intrusive linked lists because an unordered
// stream interleaves sources arbitrarily, so contiguous per-source
// ranges cannot be built. 12 bytes per edge.
type uaEdge struct {
	to    int32
	next  int32 // next edge of the same source (index + 1; 0 ends the list)
	label int32
}

// AutomatonCheck verifies an Observer property on the fly: it computes
// the reachable (system state, observer state) pairs incrementally over
// the event stream and settles with a counterexample path as soon as a
// pair with a bad observer state appears. Construct with
// NewAutomatonCheck. The verdict — the violating system state in
// propagation order and the product path to it — is deterministic and
// worker-count independent because the event stream is.
//
// Per state and per edge it allocates nothing and hashes nothing but
// the label: cells, edges and pairs live in append-only chunked tables
// indexed by state id, edge and pair index, and the predicates are
// evaluated on a scratch state the checker owns.
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

	// scratch holds the state OnState is evaluating the predicates on;
	// it is cleared afterwards, so it retains nothing.
	scratch core.State

	cells table[obsCell] // indexed by state id
	edges table[aEdge]   // deterministic stream: per-source ranges
	pairs table[aPair]
	queue []int32 // FIFO worklist of states with unpropagated bits
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
	uEdges    table[uaEdge]
}

var (
	_ Sink      = (*AutomatonCheck)(nil)
	_ OrderSink = (*AutomatonCheck)(nil)
)

// NewAutomatonCheck returns a checker for the observer.
func NewAutomatonCheck(obs *Observer) *AutomatonCheck {
	return &AutomatonCheck{Obs: obs, labelIDs: make(map[string]int32)}
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
	c.scratch = st
	pred := c.Obs.PredBits(&c.scratch)
	c.scratch = core.State{}
	if c.unordered {
		c.cells.extend(int32(id) + 1)
		c.cells.at(int32(id)).pred = pred
	} else {
		c.cells.push(obsCell{pred: pred})
	}
	if id == 0 {
		q0 := c.Obs.Step(c.Obs.Init, c.Obs.InitBits, pred)
		c.cells.at(0).obs = 1 << uint(q0)
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
	if !c.unordered {
		c.edges.push(aEdge{to: int32(to), label: id})
		return nil
	}
	src := c.cells.at(int32(from))
	ei := c.uEdges.push(uaEdge{to: int32(to), next: src.edges, label: id})
	src.edges = ei + 1
	if done := src.done; done != 0 {
		if err := c.pushBits(int32(from), done, c.uEdges.at(ei)); err != nil {
			return err
		}
		return c.drainU()
	}
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
	c.cells.at(int32(id)).edges = c.edges.len()
	c.expanded = id + 1
	c.queue = append(c.queue, int32(id))
	return c.drain()
}

// claim records the new pair (tc's state, q2), reached from the pair
// (from, q) over the edge labelled label, at the head of tc's pair
// list. Each pair is claimed once, so each state's list holds at most
// one entry per observer state.
func (c *AutomatonCheck) claim(tc *obsCell, from int32, q, q2 int, label int32) {
	tc.obs |= 1 << uint(q2)
	tc.pairs = c.pairs.push(aPair{from: from, label: label, next: tc.pairs, obs: int8(q2), fromObs: int8(q)}) + 1
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
		cell := c.cells.at(x)
		newBits := cell.obs &^ cell.done
		if newBits == 0 {
			continue
		}
		cell.done |= newBits
		var first int32
		if x > 0 {
			first = c.cells.at(x - 1).edges
		}
		for ei := first; ei < cell.edges; ei++ {
			e := c.edges.at(ei)
			tc := c.cells.at(e.to)
			ev := c.evBits[e.label]
			for bs := newBits; bs != 0; bs &= bs - 1 {
				q := bits.TrailingZeros64(bs)
				q2 := c.Obs.Step(q, ev, tc.pred)
				if tc.obs&(1<<uint(q2)) != 0 {
					continue
				}
				c.claim(tc, x, q, q2, e.label)
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
	tc := c.cells.at(e.to)
	ev := c.evBits[e.label]
	for ; bs != 0; bs &= bs - 1 {
		q := bits.TrailingZeros64(bs)
		q2 := c.Obs.Step(q, ev, tc.pred)
		if tc.obs&(1<<uint(q2)) != 0 {
			continue
		}
		c.claim(tc, from, q, q2, e.label)
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
		cell := c.cells.at(x)
		newBits := cell.obs &^ cell.done
		if newBits == 0 {
			continue
		}
		cell.done |= newBits
		for ei := cell.edges; ei != 0; {
			e := c.uEdges.at(ei - 1)
			if err := c.pushBits(x, newBits, e); err != nil {
				return err
			}
			ei = e.next
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
	for p, ok := c.parent(int32(state), obs); ok; p, ok = c.parent(p.from, int(p.fromObs)) {
		labels = append(labels, c.labels[p.label])
	}
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
	}
	c.Path = labels
	c.release()
	return ErrStop
}

// parent returns the claim record of the pair (state, obs); the initial
// pair has none.
func (c *AutomatonCheck) parent(state int32, obs int) (aPair, bool) {
	for pi := c.cells.at(state).pairs; pi != 0; {
		p := c.pairs.at(pi - 1)
		if int(p.obs) == obs {
			return *p, true
		}
		pi = p.next
	}
	return aPair{}, false
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
	c.cells, c.edges, c.pairs, c.uEdges = table[obsCell]{}, table[aEdge]{}, table[aPair]{}, table[uaEdge]{}
	c.queue = nil
	c.labelIDs, c.labels, c.evBits = nil, nil, nil
}

// tableShift sets a table's chunk size: 1<<tableShift records.
const tableShift = 12

// tableFirst is the first chunk's initial length. A run of a few
// hundred states (bipd's typical job) never fills a full chunk, so the
// first one starts small and doubles up to the full size.
const tableFirst = 64

// table is an append-only array of pointer-free records stored in
// chunks of 1<<tableShift records. A full chunk is never moved or
// copied, so growing a table neither copies what it holds nor keeps two
// copies alive, and its storage stays within one chunk of its length;
// only the first chunk is reallocated while it doubles to full size.
// Records must hold no pointers, so that the chunks are not scanned by
// the GC. The zero table is empty.
type table[T any] struct {
	chunks [][]T
	n      int32
}

// len returns the number of records.
func (t *table[T]) len() int32 { return t.n }

// at returns record i, which must be below len. The pointer is valid
// until the next push or extend.
func (t *table[T]) at(i int32) *T {
	return &t.chunks[i>>tableShift][i&(1<<tableShift-1)]
}

// push appends v and returns its index.
func (t *table[T]) push(v T) int32 {
	i := t.n
	c, o := int(i>>tableShift), int(i&(1<<tableShift-1))
	if c >= len(t.chunks) || o >= len(t.chunks[c]) {
		t.reserve(i + 1)
	}
	t.chunks[c][o] = v
	t.n = i + 1
	return i
}

// extend grows the table to n zero records if it is shorter.
func (t *table[T]) extend(n int32) {
	if n > t.n {
		t.reserve(n)
		t.n = n
	}
}

// reserve makes room for n > 0 records: it doubles the first chunk up
// to full size as far as n needs, then adds full chunks.
func (t *table[T]) reserve(n int32) {
	if len(t.chunks) == 0 {
		t.chunks = append(t.chunks, make([]T, tableFirst))
	}
	if first := t.chunks[0]; len(first) < 1<<tableShift && int(n) > len(first) {
		size := len(first)
		for size < int(n) && size < 1<<tableShift {
			size *= 2
		}
		grown := make([]T, size)
		copy(grown, first)
		t.chunks[0] = grown
	}
	for int((n-1)>>tableShift) >= len(t.chunks) {
		t.chunks = append(t.chunks, make([]T, 1<<tableShift))
	}
}
