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
// edge a compact pointer-free record (target id, interned label id, the
// link to its source's next edge) and per claimed pair its
// product-BFS-tree edge, all in append-only chunked tables;
// materialized states are still released with the frontier.
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
// (the state itself is not retained) and the ends of its edge list.
// 32 bytes, no pointers.
type obsCell struct {
	obs  uint64
	done uint64
	pred uint64
	// first and last are the state's first and last recorded edges
	// (index + 1; 0 while it has none). The list runs in stream order.
	first, last int32
}

// The per-edge and per-pair records below name the interaction label by
// its id in the check's label table (AutomatonCheck.labelID), and link
// records by index, so they hold no pointers: the GC scans none of the
// tables, and growing them pays no write barriers.

// aEdge is one recorded edge of the product propagation graph: target
// state, label id and the next edge of the same source (index + 1; 0
// ends the list). 12 bytes.
type aEdge struct {
	to    int32
	label int32
	next  int32
}

// aPair is a claimed (system state, observer state) pair with its
// product-BFS-tree edge: the pair that first produced it and the
// interaction label id of that step. The chain back to the initial pair
// is the counterexample path. 16 bytes.
type aPair struct {
	from    int32 // the parent pair's system state
	label   int32
	state   int32 // this pair's system state
	obs     int8  // this pair's observer state
	fromObs int8  // the parent pair's observer state
}

// AutomatonCheck verifies an Observer property on the fly: it computes
// the reachable (system state, observer state) pairs incrementally over
// the event stream and settles with a counterexample path as soon as a
// pair with a bad observer state appears. Construct with
// NewAutomatonCheck.
//
// One propagation serves every stream order the Sink contract allows. A
// state's observer states propagate through its recorded edges at its
// OnExpanded; a state that gains observer states later propagates them
// again through a FIFO worklist; and an edge that arrives after its
// source has propagated (an unordered stream's late cross edge) is
// pushed through on arrival. Every recorded edge has then seen every
// propagated observer state, so the product fixpoint is exact under any
// interleaving. On the deterministic stream the propagation order is
// fully determined, so the verdict — the violating system state and the
// product path to it — is too; on an unordered stream Found and
// Exhaustive are the same, while the particular bad pair may differ.
//
// Per state and per edge it allocates nothing and hashes nothing but
// the label: cells (32 bytes per state), edges (12 bytes) and pairs (16
// bytes) live in append-only chunked tables, and the predicates are
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
	edges table[aEdge]   // per-source lists, linked through next
	pairs table[aPair]   // in claim order
	queue []int32        // FIFO worklist of states with unpropagated bits
}

var _ Sink = (*AutomatonCheck)(nil)

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

// OnState implements Sink: it pre-evaluates the rule predicates while
// the state is materialized and, for the initial state, performs the
// observer's initial observation. Ids are dense but may arrive in any
// order after OnState(0), so the cell table grows to the id.
func (c *AutomatonCheck) OnState(id int, st core.State, d Discovery) error {
	c.scratch = st
	pred := c.Obs.PredBits(&c.scratch)
	c.scratch = core.State{}
	c.cells.extend(int32(id) + 1)
	cell := c.cells.at(int32(id))
	cell.pred = pred
	if id == 0 {
		q0 := c.Obs.Step(c.Obs.Init, c.Obs.InitBits, pred)
		cell.obs = 1 << uint(q0)
		if c.Obs.Bad&(1<<uint(q0)) != 0 {
			return c.settleProduct(0, q0)
		}
	}
	return nil
}

// OnEdge implements Sink: the edge joins the end of its source's list.
// A source that has already propagated (a late cross edge) pushes its
// propagated observer states through the edge on arrival.
func (c *AutomatonCheck) OnEdge(from, to int, label string) error {
	ei := c.edges.push(aEdge{to: int32(to), label: c.labelID(label)}) + 1
	src := c.cells.at(int32(from))
	if src.last == 0 {
		src.first = ei
	} else {
		c.edges.at(src.last - 1).next = ei
	}
	src.last = ei
	if src.done == 0 {
		return nil
	}
	if err := c.pushBits(int32(from), src.done, *c.edges.at(ei - 1)); err != nil {
		return err
	}
	return c.drain()
}

// OnExpanded implements Sink: the state's observer states propagate
// through the edges recorded for it, and on through every state that
// gains observer states, to the product fixpoint for the stream so far.
func (c *AutomatonCheck) OnExpanded(id, moves int) error {
	c.queue = append(c.queue, int32(id))
	return c.drain()
}

// drain runs the FIFO worklist: each queued state pushes the observer
// states it has not propagated yet through its edges. The order — FIFO
// queue, edges in stream order, observer states in ascending order — is
// fully determined by the event stream, which makes the first bad pair
// (and its product path) deterministic on the deterministic stream.
func (c *AutomatonCheck) drain() error {
	for head := 0; head < len(c.queue); head++ {
		x := c.queue[head]
		cell := c.cells.at(x)
		newBits := cell.obs &^ cell.done
		if newBits == 0 {
			continue
		}
		cell.done |= newBits
		for ei := cell.first; ei != 0; {
			e := *c.edges.at(ei - 1)
			if err := c.pushBits(x, newBits, e); err != nil {
				return err
			}
			ei = e.next
		}
	}
	c.queue = c.queue[:0]
	return nil
}

// pushBits steps the observer states bs of state from across edge e,
// claiming the (state, observer) pairs they reach. A target that gains
// one is queued if it has recorded edges or has propagated before; any
// other target is not expanded yet and propagates at its OnExpanded.
// (Every state holds an observer state by then: its discoverer's
// OnExpanded pushed one through the discovery edge. So done != 0 marks
// an expanded state even when all its edges are still to come.)
func (c *AutomatonCheck) pushBits(from int32, bs uint64, e aEdge) error {
	tc := c.cells.at(e.to)
	ev := c.evBits[e.label]
	for ; bs != 0; bs &= bs - 1 {
		q := bits.TrailingZeros64(bs)
		q2 := c.Obs.Step(q, ev, tc.pred)
		if tc.obs&(1<<uint(q2)) != 0 {
			continue
		}
		tc.obs |= 1 << uint(q2)
		c.pairs.push(aPair{from: from, label: e.label, state: e.to, obs: int8(q2), fromObs: int8(q)})
		if c.Obs.Bad&(1<<uint(q2)) != 0 {
			c.queue = c.queue[:0]
			return c.settleProduct(int(e.to), q2)
		}
		if tc.first != 0 || tc.done != 0 {
			c.queue = append(c.queue, e.to)
		}
	}
	return nil
}

// settleProduct records the verdict: the violating system state and the
// interaction path reconstructed from the product BFS tree (a path that
// both exists in the system and drives the observer to the bad state —
// the discovery-tree path of the state alone need not). Each pair is
// claimed after the pair it came from and the initial pair has no
// record, so one backward scan of the pair table meets the whole chain.
// The propagation tables are released; the check is settled.
func (c *AutomatonCheck) settleProduct(state, obs int) error {
	c.Found = true
	c.State = state
	var labels []string
	s, q := int32(state), int8(obs)
	for pi := c.pairs.len() - 1; pi >= 0; pi-- {
		if p := c.pairs.at(pi); p.state == s && p.obs == q {
			labels = append(labels, c.labels[p.label])
			s, q = p.from, p.fromObs
		}
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
	c.cells, c.edges, c.pairs = table[obsCell]{}, table[aEdge]{}, table[aPair]{}
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
