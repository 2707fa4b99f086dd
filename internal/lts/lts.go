// Package lts explores the explicit state space of a BIP system and
// analyzes it: reachability, deadlock detection, invariant checking,
// strong bisimulation, and observational trace inclusion.
//
// This is the repository's "correctness-by-checking" engine — the
// monolithic global-state verifier the paper contrasts with compositional
// verification (package invariant). Its exhaustive exploration exhibits
// exactly the state-explosion behaviour the paper describes (§4.3), which
// experiment E1 measures. Exploration is streaming at heart: Stream's
// one worker loop (on a FIFO or on work-stealing deques) emits an event
// stream into a Sink, and the on-the-fly checkers in check.go verify
// properties as states are discovered, early-exiting on the first
// violation with O(frontier) live memory. The materialized LTS built by
// Explore is just one sink over the same stream.
package lts

import (
	"context"
	"fmt"
	"sort"
	"time"

	"bip/internal/core"
	"bip/internal/faultfs"
)

// Edge is an outgoing transition of an explored state.
type Edge struct {
	To    int
	Label string
}

// LTS is the explored (portion of the) state space of a system. It is
// the materializing Sink: Explore drives it over the exploration event
// stream, and every analysis below runs on the stored graph. Analyses
// whose answer is state-independent (Deadlocks, LabelSet) are computed
// once on first use and cached; the cache assumes the LTS is no longer
// fed events, which holds as soon as Explore (or the Stream call that
// fed it) has returned.
type LTS struct {
	sys    *core.System
	states []core.State
	edges  [][]Edge

	// tree is the run's BFS tree, taken from the initial state's
	// Discovery; PathTo walks it.
	tree *bfsTree

	truncated bool

	// Lazily computed analysis caches (see Deadlocks, LabelSet).
	deadlocks     []int
	deadlocksOnce bool
	labels        []string
	labelsOnce    bool
}

// Options configures exploration.
type Options struct {
	// MaxStates bounds exploration; 0 means DefaultMaxStates.
	MaxStates int
	// Raw ignores priority filtering (explores the unrestricted
	// interaction semantics).
	Raw bool
	// Workers is the number of workers under Unordered order; a
	// negative value means GOMAXPROCS. 0 and 1 run one worker: on the
	// FIFO frontier, or on the deques when Order is Unordered and a
	// MemBudget is set, since only their frontier spills. Under the
	// default Order (Deterministic) one worker runs the FIFO whatever
	// Workers and MemBudget say, so every sink, including the
	// materialized LTS, is worker-count independent.
	Workers int
	// Order selects the event-stream discipline: Deterministic (default)
	// runs one worker on the FIFO frontier; Unordered with Workers > 1
	// or a MemBudget runs the same loop on barrier-free work-stealing
	// deques, whose state set, edges and verdicts are identical but
	// whose numbering and event order are scheduling-dependent. Ignored
	// at one worker without a MemBudget.
	Order Order
	// Expander selects the expansion stage (expand.go): nil explores
	// every enabled move; an AmpleExpander prunes to ample sets
	// (partial-order reduction). With a reducing expander the explored
	// state and edge sets are a property-preserving SUBSET of the full
	// LTS: deadlocks and the installed visibility's observations are
	// preserved, other states may be absent. Under Deterministic order
	// the reduced stream is the same at any worker count; under
	// Unordered the reduced state set itself may vary with
	// schedule (the cycle proviso reacts to discovery order), though
	// verdicts are preserved either way.
	Expander Expander
	// Seen selects the successor-dedup layer (seenset.go): nil or
	// ExactSeen{} stores full keys (exact membership), CompactSeen{}
	// stores 8-byte hash records per visited state (18.5 B/state with
	// the table at one worker on CounterGrid(7,5), against exact's
	// 101.3 for its 91-byte keys). The explored state set, edges and
	// every verdict are identical across implementations (see
	// CompactSeen for the precise guarantee); only memory varies,
	// reported in Stats.SeenBytes.
	Seen SeenSets
	// MemBudget approximately bounds the resident frontier of the
	// work-stealing deques (Unordered order, at any worker count), in bytes
	// (accounted with the Stats.PeakFrontierBytes model). When the
	// pending work exceeds it, whole deque chunks are serialized to a
	// temporary spill file as flat key records and streamed back as
	// workers drain, so spaces whose frontier exceeds RAM complete
	// instead of OOMing (Stats.SpilledChunks counts the round trips).
	// 0 means unlimited; the FIFO frontier (Deterministic order)
	// ignores it and keeps its frontier resident.
	MemBudget int64
	// Ctx, when non-nil, cancels the exploration: every worker polls it
	// once per expansion, and Stream returns its error
	// (context.Canceled / DeadlineExceeded) as soon as every worker has
	// unwound. A cancellation that lands after the last expansion's poll
	// does not undo a finished run. The sink's Done is not called on
	// cancellation.
	Ctx context.Context
	// Progress, when non-nil, receives periodic snapshots of the
	// running exploration's Stats — the hook behind bip.WithProgress
	// and the bipd job progress stream. Snapshots are cumulative
	// (States/Transitions only grow) but best-effort: memory figures
	// are the values the loop can read cheaply at the tick. It is called
	// between state expansions by whichever worker finishes one once
	// the interval has elapsed — on the FIFO that is the calling
	// goroutine; on the work-stealing deques (Unordered order) it
	// may run concurrently with Sink calls, but never with itself. No
	// goroutine is started for it. The callback must return quickly and
	// must not call back into the exploration. No final call is
	// guaranteed at termination — the Stats returned by Stream is the
	// authoritative summary.
	Progress func(Stats)
	// ProgressEvery is the minimum interval between Progress calls;
	// 0 means DefaultProgressEvery.
	ProgressEvery time.Duration
	// FS overrides the filesystem behind the spill layer; nil means the
	// real one (faultfs.OS). It is the fault-injection seam: the spill
	// hygiene tests route CreateTemp/WriteAt/ReadAt through
	// faultfs.Hooks to prove an injected disk fault surfaces as the
	// run's clean terminal error — never a panic, a hang, or a leaked
	// temp file.
	FS faultfs.FS
}

// fs resolves the spill filesystem, defaulting to the real one.
func (o *Options) fs() faultfs.FS {
	if o.FS == nil {
		return faultfs.OS
	}
	return o.FS
}

// seenSets resolves the dedup factory, defaulting to exact storage.
func (o *Options) seenSets() SeenSets {
	if o.Seen == nil {
		return ExactSeen{}
	}
	return o.Seen
}

// Explore builds the reachable LTS of sys by breadth-first search: it
// runs Stream with the LTS itself as the sink.
//
// Enabledness is computed incrementally: each frontier state carries a
// per-interaction move table derived from its parent's table, so
// expanding a state re-derives only the interactions incident to the
// move that produced it (core.TableDeriver) instead of rescanning the
// whole glue per state. Tables are dropped once a state is expanded —
// the cache lives exactly on the BFS frontier.
//
// Dedup is keyed by the system's fixed-width binary state keys
// (core.System.AppendBinaryKey). Under the default Deterministic order
// one worker on the FIFO frontier builds the LTS whatever
// Options.Workers says; Unordered with Workers > 1 or a MemBudget
// explores on the work-stealing deques and builds the same LTS up to
// state numbering.
func Explore(sys *core.System, opts Options) (*LTS, error) {
	l := &LTS{sys: sys}
	if _, err := Stream(sys, opts, l); err != nil {
		return nil, err
	}
	return l, nil
}

// OnState implements Sink by storing the state. Ids are dense but may
// arrive in any order after OnState(0), so the tables grow with
// placeholders, all filled before Done. The first Discovery's handle on
// the run's BFS tree is kept for PathTo.
func (l *LTS) OnState(id int, st core.State, d Discovery) error {
	if l.tree == nil {
		l.tree = d.tree
	}
	for len(l.states) <= id {
		l.states = append(l.states, core.State{})
		l.edges = append(l.edges, nil)
	}
	l.states[id] = st
	return nil
}

// OnEdge implements Sink.
func (l *LTS) OnEdge(from, to int, label string) error {
	l.edges[from] = append(l.edges[from], Edge{To: to, Label: label})
	return nil
}

// OnExpanded implements Sink.
func (l *LTS) OnExpanded(int, int) error { return nil }

// Done implements Sink.
func (l *LTS) Done(truncated bool) error {
	l.truncated = truncated
	return nil
}

// NumStates returns the number of explored states.
func (l *LTS) NumStates() int { return len(l.states) }

// NumTransitions returns the number of explored transitions.
func (l *LTS) NumTransitions() int {
	n := 0
	for _, es := range l.edges {
		n += len(es)
	}
	return n
}

// Truncated reports whether exploration hit the state bound, in which
// case absence results (deadlock-freedom, invariant validity) are not
// conclusive.
func (l *LTS) Truncated() bool { return l.truncated }

// State returns explored state i.
func (l *LTS) State(i int) core.State { return l.states[i] }

// Edges returns the outgoing edges of state i.
func (l *LTS) Edges(i int) []Edge { return l.edges[i] }

// System returns the underlying system.
func (l *LTS) System() *core.System { return l.sys }

// Deadlocks returns the indices of states with no outgoing transition.
// The scan runs once per LTS and is cached; the caller must not mutate
// the result.
func (l *LTS) Deadlocks() []int {
	if !l.deadlocksOnce {
		l.deadlocksOnce = true
		for i, es := range l.edges {
			if len(es) == 0 {
				l.deadlocks = append(l.deadlocks, i)
			}
		}
	}
	return l.deadlocks
}

// DeadlockFree reports whether no reachable state is a deadlock. It
// reports an error when exploration was truncated, because the answer
// would not be trustworthy.
func (l *LTS) DeadlockFree() (bool, error) {
	if l.truncated {
		return false, fmt.Errorf("lts: exploration truncated at %d states; deadlock-freedom undecided", len(l.states))
	}
	return len(l.Deadlocks()) == 0, nil
}

// PathTo reconstructs the interaction labels leading from the initial
// state to state i along the BFS tree.
func (l *LTS) PathTo(i int) []string { return l.tree.path(int32(i)) }

// FindState returns the first explored state satisfying pred.
func (l *LTS) FindState(pred func(core.State) bool) (int, bool) {
	for i, st := range l.states {
		if pred(st) {
			return i, true
		}
	}
	return 0, false
}

// CheckInvariant verifies pred on every reachable state. On violation it
// returns the offending state index and the path to it.
func (l *LTS) CheckInvariant(pred func(core.State) bool) (ok bool, state int, path []string) {
	if i, found := l.FindState(func(st core.State) bool { return !pred(st) }); found {
		return false, i, l.PathTo(i)
	}
	return true, 0, nil
}

// LabelSet returns the sorted set of labels appearing in the LTS. The
// set is computed once per LTS and cached; the caller must not mutate
// the result.
func (l *LTS) LabelSet() []string {
	if !l.labelsOnce {
		l.labelsOnce = true
		set := make(map[string]bool)
		for _, es := range l.edges {
			for _, e := range es {
				set[e.Label] = true
			}
		}
		l.labels = make([]string, 0, len(set))
		for s := range set {
			l.labels = append(l.labels, s)
		}
		sort.Strings(l.labels)
	}
	return l.labels
}
