package lts

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"bip/internal/core"
)

// This file implements streaming (on-the-fly) exploration: the two
// breadth-first drivers — sequential here, work-stealing in wsteal.go —
// build no data structure of their own but emit an event stream into a
// Sink. Materializing the full LTS (Explore) is just one sink; the
// on-the-fly checkers in check.go are others. Under the default
// Deterministic order the sequential driver runs at any Options.Workers
// value, so every sink is worker-count independent.
//
// The memory contract is what makes streaming matter for the biggest
// workloads: the drivers retain materialized states, move tables and
// counterexample-path nodes only for the BFS frontier (discovered but
// not yet expanded states). Once a state is expanded its machinery is
// released — what remains per visited state is one fixed-width binary
// dedup key. A checker that early-exits on the first violation therefore
// runs in O(frontier) live memory instead of the O(statespace) states,
// edges and BFS tree the materialized LTS retains, and never pays for
// the part of the space behind the violation.

// DefaultMaxStates is the exploration bound applied when
// Options.MaxStates is zero. Every entry point — the library drivers and
// the command-line tools — routes its default through this constant, so
// CLIs and library agree.
const DefaultMaxStates = 1 << 20

// DefaultProgressEvery is the interval between Options.Progress
// callbacks when Options.ProgressEvery is zero. Ten snapshots a second
// is enough for a live progress stream while keeping the callback cost
// invisible next to state expansion.
const DefaultProgressEvery = 100 * time.Millisecond

// progressStride is how many expansions the sequential driver lets pass
// between clock reads when rate-limiting Progress callbacks: one
// time.Now per stride instead of per state keeps the hook free on the
// hot path while still honoring ProgressEvery to within a few
// expansions.
const progressStride = 16

// progressMeter rate-limits Options.Progress for the sequential driver,
// which calls it inline per expansion. The work-stealing driver uses a
// time.Ticker goroutine instead (wsteal.go) — its workers never meet a
// common point to tick from.
type progressMeter struct {
	fn    func(Stats)
	every time.Duration
	last  time.Time
	skip  int
}

// newProgressMeter returns nil (a no-op receiver) when no callback is
// installed.
func newProgressMeter(opts *Options) *progressMeter {
	if opts.Progress == nil {
		return nil
	}
	return &progressMeter{fn: opts.Progress, every: opts.progressEvery(), last: time.Now()}
}

// progressEvery resolves the callback interval.
func (o *Options) progressEvery() time.Duration {
	if o.ProgressEvery > 0 {
		return o.ProgressEvery
	}
	return DefaultProgressEvery
}

// tick fires the callback if the interval has elapsed, reading the clock
// only every progressStride calls. snap builds the snapshot and runs
// only when a callback actually fires.
func (p *progressMeter) tick(snap func() Stats) {
	if p == nil {
		return
	}
	if p.skip > 0 {
		p.skip--
		return
	}
	p.skip = progressStride
	now := time.Now()
	if now.Sub(p.last) < p.every {
		return
	}
	p.last = now
	p.fn(snap())
}

// ErrStop is the sentinel a Sink returns to end exploration early
// without reporting an error (a checker found its violation, a collector
// has all it needs). The drivers swallow it: Stream returns nil after a
// sink-requested stop, with Stats.Stopped set.
var ErrStop = errors.New("lts: stop exploration")

// Order selects the event-stream discipline of a multi-worker
// exploration. It trades scheduling freedom against stream determinism;
// the explored state *set*, the edge set, the truncation flag and every
// checker verdict (violated / conclusive) are identical either way —
// only state numbering, event order and therefore which particular
// counterexample is reported may differ under Unordered.
type Order int

const (
	// Deterministic (the default) emits the sequential driver's event
	// stream: same state numbering, edges, BFS tree, truncation —
	// bit-identical sinks. It always runs the sequential driver;
	// Options.Workers has no effect (DESIGN.md records why there is no
	// deterministic parallel driver).
	Deterministic Order = iota
	// Unordered runs the work-stealing explorer (wsteal.go): per-worker
	// chunked deques with steal-half balancing and no barrier anywhere
	// on the hot path. Events are emitted as expansion completes, so
	// state numbering and stream order vary run to run; the relaxed
	// Sink contract below still holds. Prefer it whenever only
	// verdicts, the state set, or canonical analyses matter.
	Unordered
)

// OrderSink is an optional Sink extension: a driver announces the
// stream order it is about to produce before the first event, so
// order-sensitive sinks (AutomatonCheck, DeadlockCheck) can pick the
// matching bookkeeping. Sinks that do not implement it must either be
// order-insensitive or be used only with deterministic streams.
// NewMulti forwards the announcement to every child.
type OrderSink interface {
	SetStreamOrder(Order)
}

// announceOrder tells an order-aware sink which stream to expect.
func announceOrder(sink Sink, o Order) {
	if os, ok := sink.(OrderSink); ok {
		os.SetStreamOrder(o)
	}
}

// Sink consumes the exploration event stream. With Options.Order ==
// Deterministic (the default), events arrive in the order of the
// sequential breadth-first search, regardless of Options.Workers:
//
//   - OnState(id, …) once per admitted state, in increasing id order (the
//     initial state is id 0). The state is a materialized snapshot the
//     sink may retain.
//   - OnEdge(from, to, label) once per transition, grouped by source:
//     `from` is non-decreasing, and all edges of a state are emitted
//     between its OnState and its OnExpanded. Edges to states rejected by
//     the MaxStates bound are not emitted (matching the materialized
//     LTS), but such suppressed successors still count in OnExpanded's
//     move count.
//   - OnExpanded(id, moves) after state id's expansion completes, in
//     increasing id order; moves is the number of enabled moves at the
//     state, so moves == 0 identifies a deadlock even when the bound
//     truncated the edge stream.
//   - Done(truncated) once, after the full (possibly truncated)
//     exploration — but not after an ErrStop.
//
// With Options.Order == Unordered and Workers > 1, the work-stealing
// driver relaxes the ordering only: ids are still dense and unique,
// OnState(0) is still the first event, every state's OnState still
// precedes both every OnEdge mentioning it (either endpoint) and its
// own OnExpanded — but ids arrive in no particular order, edges of one
// state need not be contiguous, and a late cross edge may even arrive
// after its source's OnExpanded. Drivers announce the order through
// OrderSink before the first event.
//
// Methods are never called concurrently. Returning ErrStop ends the
// exploration early; any other error aborts it and is returned by the
// driver.
type Sink interface {
	OnState(id int, st core.State, d Discovery) error
	OnEdge(from, to int, label string) error
	OnExpanded(id, moves int) error
	Done(truncated bool) error
}

// pathNode is one edge of the frontier-resident BFS tree: the label of
// the discovery transition plus the parent state's node. Nodes are
// reachable only through the Discovery handles of frontier states (and
// through their children's nodes), so the tree shrinks to the ancestors
// of the live frontier as exploration proceeds — expanded branches are
// garbage-collected instead of being retained for the whole run.
type pathNode struct {
	parent *pathNode
	label  string
}

// Discovery describes how a state was first reached: the BFS-tree edge
// (Parent, Label) and a handle on the frontier-resident path back to the
// initial state. The zero Discovery (Parent == -1) is the initial state.
type Discovery struct {
	// Parent is the id of the state whose expansion discovered this one;
	// -1 for the initial state.
	Parent int
	// Label is the interaction label of the discovery transition; empty
	// for the initial state.
	Label string

	node *pathNode
}

// Path returns the interaction labels leading from the initial state to
// the discovered state along the BFS tree — the same path the
// materialized LTS reconstructs with PathTo.
func (d Discovery) Path() []string {
	n := 0
	for p := d.node; p != nil; p = p.parent {
		n++
	}
	out := make([]string, n)
	for p := d.node; p != nil; p = p.parent {
		n--
		out[n] = p.label
	}
	return out
}

// Stats summarizes a streaming run. It is JSON-round-trippable (every
// field carries a wire tag): bipd streams Stats snapshots as progress
// events and serializes them into job views, so the struct doubles as a
// wire shape — keep the tags stable.
type Stats struct {
	// States is the number of admitted (numbered) states.
	States int `json:"states"`
	// Transitions is the number of edges emitted.
	Transitions int `json:"transitions"`
	// PeakFrontier is the streaming memory high-water mark experiment
	// E16 compares against the materialized state count: the maximum
	// number of states the driver held materialized at once. For the
	// sequential driver this is exactly the running frontier
	// (discovered-but-unexpanded states). The work-stealing driver
	// records the in-flight high-water mark (admitted but not yet
	// expanded-and-flushed, wherever the state is buffered). It is the
	// one Stats field that may differ between the two drivers (and,
	// under Unordered, from run to run).
	PeakFrontier int `json:"peak_frontier"`
	// PeakFrontierBytes prices PeakFrontier in bytes under the
	// frontierEntryBytes accounting model (key width + flat per-atom /
	// per-interaction machinery estimate), so EXPERIMENTS.md memory
	// claims are measured against one reproducible model. For the
	// work-stealing driver it prices the RESIDENT peak: states parked
	// in the spill file are excluded, which is exactly what MemBudget
	// bounds.
	PeakFrontierBytes int64 `json:"peak_frontier_bytes"`
	// SeenBytes is the dedup layer's final memory footprint, summed
	// over stripes (see SeenSet.Bytes) — the number the E20 experiment
	// compares between ExactSeen and CompactSeen.
	SeenBytes int64 `json:"seen_bytes"`
	// ExactPromotions counts membership answers where CompactSeen's
	// exact-promotion tier overruled a colliding discriminator; 0 for
	// exact dedup and for compact dedup at full discriminator width.
	ExactPromotions int64 `json:"exact_promotions"`
	// SpilledChunks counts frontier chunks the work-stealing driver
	// serialized to the spill file under Options.MemBudget (each chunk
	// is written once and read back once).
	SpilledChunks int64 `json:"spilled_chunks"`
	// Truncated reports that the MaxStates bound cut the exploration.
	Truncated bool `json:"truncated"`
	// Stopped reports that the sink ended the exploration early with
	// ErrStop.
	Stopped bool `json:"stopped"`

	// Reduction counters, nonzero only when Options.Expander reduces
	// (expand.go). AmpleStates counts states expanded with a strict
	// ample subset of their enabled moves; PrunedMoves counts the
	// enabled moves those expansions did not pursue; ProvisoFallbacks
	// counts states where an ample choice was escalated to full
	// expansion by the cycle proviso (an ample successor was already
	// visited).
	AmpleStates      int `json:"ample_states"`
	PrunedMoves      int `json:"pruned_moves"`
	ProvisoFallbacks int `json:"proviso_fallbacks"`

	// ReductionDegradedBy names the property whose visibility forced a
	// reduction request back to full expansion. The drivers never set
	// it — bip.Verify stamps it on progress snapshots and the final
	// report, so the wire shape carries the cause wherever Stats goes.
	ReductionDegradedBy string `json:"reduction_degraded_by,omitempty"`
}

// Stream explores the reachable state space of sys breadth-first and
// feeds the event stream to sink. Options.Order == Unordered with
// Options.Workers > 1 runs the work-stealing driver (wsteal.go); every
// other configuration runs the sequential driver, whose stream is the
// deterministic one. Stream returns once the space is exhausted, the
// MaxStates bound is hit, or the sink stops it.
func Stream(sys *core.System, opts Options, sink Sink) (Stats, error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	// The seen sets and the work-stealing entries store state ids as
	// int32; make that limit explicit instead of overflowing.
	if maxStates > math.MaxInt32 {
		maxStates = math.MaxInt32
	}
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && opts.Order == Unordered {
		announceOrder(sink, Unordered)
		return streamWorkSteal(sys, opts, workers, maxStates, sink)
	}
	// The sequential driver produces the deterministic stream by
	// construction, whatever Order asks for — announce what the sink
	// will actually see.
	announceOrder(sink, Deterministic)
	return streamSeq(sys, opts, maxStates, sink)
}

// seqEntry is one frontier slot of the sequential driver: the
// materialized state, its per-interaction move table, and its BFS-tree
// node. Entries are zeroed as soon as the state is expanded.
type seqEntry struct {
	st   core.State
	vec  [][]core.Move
	node *pathNode
}

// frontierEntryBytes is the per-resident-state accounting model behind
// Stats.PeakFrontierBytes and Options.MemBudget: the fixed-width dedup
// key plus a flat estimate of the frontier machinery a pending state
// keeps materialized — the entry struct and BFS-tree node (~128 B),
// per-atom state storage (location header + variable store, ~48 B per
// atom), and the per-interaction move-table headers (~24 B each). It
// deliberately ignores model-dependent variance (large per-move choice
// vectors, string contents) so the same state always costs the same:
// budgets and the E20 measurements stay reproducible.
func frontierEntryBytes(sys *core.System) int64 {
	return int64(sys.BinaryKeyWidth()) + 128 +
		48*int64(len(sys.Atoms)) + 24*int64(len(sys.Interactions))
}

func streamSeq(sys *core.System, opts Options, maxStates int, sink Sink) (stats Stats, err error) {
	stats = Stats{States: 1, PeakFrontier: 1}
	init := sys.Initial()
	ctx := sys.NewExploreCtx()
	exp := opts.newWorkerExpander(sys)
	done := opts.ctxDone()
	pm := newProgressMeter(&opts)
	entryBytes := frontierEntryBytes(sys)
	seen := opts.seenSets().NewSeenSet(sys.BinaryKeyWidth())
	initKey := sys.AppendBinaryKey(nil, init)
	seen.Add(hashKey(initKey), initKey, 0)
	defer func() {
		stats.SeenBytes = seen.Bytes()
		stats.ExactPromotions = seen.Promotions()
		stats.PeakFrontierBytes = int64(stats.PeakFrontier) * frontierEntryBytes(sys)
	}()
	initVec, err := sys.EnabledVector(init)
	if err != nil {
		return stats, fmt.Errorf("explore state 0: %w", err)
	}
	if err := sink.OnState(0, init, Discovery{Parent: -1}); err != nil {
		return stats, stats.finish(err)
	}
	// queue holds the frontier; queue[head] is the next state to expand
	// and carries id base+head. Expanded slots are zeroed and the window
	// is compacted once the dead prefix dominates, so the driver's live
	// memory tracks the frontier, not the visited set.
	queue := []seqEntry{{st: init, vec: initVec}}
	base, head := 0, 0
	// levelLast is the id of the last state of the BFS level currently
	// being expanded. When the head moves past it, every state of the
	// next level has already been admitted (BFS discovers level d+1
	// entirely while expanding level d), so the boundary advances to the
	// last admitted id. The cycle proviso below keys on it: a successor
	// with id <= levelLast sits at this level or an earlier one, so the
	// edge can close a cycle in the reduced graph.
	levelLast := 0
	for head < len(queue) {
		select {
		case <-done:
			return stats, opts.Ctx.Err()
		default:
		}
		id := base + head
		if id > levelLast {
			levelLast = stats.States - 1
		}
		e := queue[head]
		queue[head] = seqEntry{}
		head++
		if head > 64 && head*2 >= len(queue) {
			n := copy(queue, queue[head:])
			queue = queue[:n]
			base += head
			head = 0
		}
		moves, nAmple, err := exp.Expand(ctx, e.st, e.vec)
		if err != nil {
			return stats, fmt.Errorf("explore state %d: %w", id, err)
		}
		// Explore the ample prefix; escalate to the full move list if an
		// ample successor turns out to be already visited (cycle
		// proviso, condition C3 — see expand.go).
		explore := nAmple
		for mi := 0; mi < explore; mi++ {
			m := moves[mi]
			view, err := ctx.Scratch.Exec(e.st, m)
			if err != nil {
				return stats, fmt.Errorf("explore state %d: %w", id, err)
			}
			label := sys.Label(m)
			ctx.Key = sys.AppendBinaryKey(ctx.Key[:0], *view)
			h := hashKey(ctx.Key)
			to32, dup := seen.Find(h, ctx.Key)
			to := int(to32)
			if !dup {
				if stats.States >= maxStates {
					stats.Truncated = true
					continue
				}
				next := ctx.Scratch.MaterializeSlab(m, ctx.Slab)
				nextVec, err := ctx.Deriver.DeriveSlab(e.vec, m, next, ctx.Slab)
				if err != nil {
					return stats, fmt.Errorf("explore state %d: %w", id, err)
				}
				to = stats.States
				stats.States++
				seen.Add(h, ctx.Key, int32(to))
				node := &pathNode{parent: e.node, label: label}
				queue = append(queue, seqEntry{st: next, vec: nextVec, node: node})
				if f := len(queue) - head; f > stats.PeakFrontier {
					stats.PeakFrontier = f
				}
				if err := sink.OnState(to, next, Discovery{Parent: id, Label: label, node: node}); err != nil {
					return stats, stats.finish(err)
				}
			} else if to <= levelLast && explore < len(moves) {
				explore = len(moves)
			}
			stats.Transitions++
			if err := sink.OnEdge(id, to, label); err != nil {
				return stats, stats.finish(err)
			}
		}
		if nAmple < len(moves) {
			if explore == len(moves) {
				stats.ProvisoFallbacks++
			} else {
				stats.AmpleStates++
				stats.PrunedMoves += len(moves) - nAmple
			}
		}
		if err := sink.OnExpanded(id, len(moves)); err != nil {
			return stats, stats.finish(err)
		}
		pm.tick(func() Stats {
			s := stats
			s.SeenBytes = seen.Bytes()
			s.ExactPromotions = seen.Promotions()
			s.PeakFrontierBytes = int64(s.PeakFrontier) * entryBytes
			return s
		})
	}
	return stats, stats.finish(sink.Done(stats.Truncated))
}

// finish folds a sink return value into the run outcome: ErrStop is a
// normal early termination, anything else an error.
func (s *Stats) finish(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrStop) {
		s.Stopped = true
		return nil
	}
	return err
}
