package lts

import (
	"fmt"
	"sort"

	"bip/internal/core"
)

// This file is the pluggable expansion stage between core's semantics
// (TableDeriver and ScratchExec via ExploreCtx) and the exploration loop
// (stream.go). The loop does not decide which successors of a state to
// pursue; each worker asks its WorkerExpander and processes what it
// returns. Full expansion — every enabled move — is the
// default; the ample-set partial-order reducer below is the first
// alternative client.
//
// The Expand contract is designed so that reduction never distorts the
// observable enabledness of a state: Expand returns the FULL enabled
// move list, deterministically reordered with the ample subset as a
// prefix, plus the prefix length. The loop explores only the prefix but
// reports the full length through OnExpanded, so deadlock detection
// (moves == 0) and enabled-move counts stay exact under reduction. The
// suffix also lets the loop escalate to full expansion mid-state when
// the cycle proviso demands it (see C3 below) without a second
// derivation.
//
// Ample sets. The reducer picks, per state, one reducible connector
// cluster (core.ClusterReducible) and takes all enabled moves of that
// cluster's interactions as the ample set. The classical conditions:
//
//	C0  the ample set is empty only if the state has no enabled move —
//	    holds because a cluster is selected only when it has at least
//	    one enabled move; deadlocks are therefore preserved exactly.
//	C1  (persistence) no move outside the ample set, nor any move
//	    reachable by firing such moves, can disable, enable or alter an
//	    ample move — holds structurally: interactions outside the
//	    cluster touch no cluster atom, and reducible clusters have no
//	    priority rule linking them to the rest of the system, so a
//	    cluster move's enabledness is a function of the cluster state
//	    alone.
//	C2  (visibility) a strict ample subset contains no visible move and
//	    no move of an atom the property observes — enforced by
//	    excluding clusters that contain a visible interaction or a
//	    visible atom from selection.
//	C3  (cycle proviso) every cycle of the reduced graph contains one
//	    fully expanded state — enforced in one place, the loop's
//	    expandFlush: a state whose ample successor was already
//	    admitted is escalated to full expansion. Admission order
//	    strictly increases along reduced edges to fresh states, so any
//	    cycle must contain an edge to an already-admitted state, and
//	    its source is fully expanded. The FIFO frontier narrows the
//	    test to successors at the current BFS level or an earlier one:
//	    a cycle cannot only climb levels, so it contains such an edge,
//	    and that edge's source escalates. The work-stealing deques
//	    have no levels and escalate on any admitted successor.
//
// Selection is deterministic: among eligible clusters with 0 < enabled
// moves < all enabled moves, the one with the fewest moves wins, ties
// broken by smaller cluster index. The reordering is stable, so the
// deterministic reduced stream is reproducible.

// Visibility declares what a property observes, so reduction never
// prunes a transition the property could see. The zero value observes
// nothing (maximal reduction — sound for deadlock detection, which
// needs no visibility at all).
type Visibility struct {
	// All forces full expansion: the property's observations cannot be
	// bounded statically (opaque predicates, label-counting observers,
	// explicit automata).
	All bool
	// Labels lists interaction labels the property matches on. Moves of
	// a visible interaction are never pruned.
	Labels []string
	// Atoms lists indices of atoms whose location or variables a
	// property predicate reads. No move of a visible atom's cluster is
	// ever pruned, so every predicate change stays on the reduced graph.
	Atoms []int
}

// Union merges two visibility declarations; Verify uses it to combine
// the requirements of all checked properties.
func (v Visibility) Union(o Visibility) Visibility {
	out := Visibility{All: v.All || o.All}
	if out.All {
		return out
	}
	out.Labels = append(append([]string(nil), v.Labels...), o.Labels...)
	out.Atoms = append(append([]int(nil), v.Atoms...), o.Atoms...)
	return out
}

// Expander is the pluggable expansion stage. Implementations must be
// safe to share across workers and runs; per-worker scratch lives in
// the WorkerExpander instances the factory hands out.
type Expander interface {
	// NewWorkerExpander returns a fresh single-threaded expansion stage
	// for one exploration worker. raw mirrors Options.Raw (priority
	// filtering off).
	NewWorkerExpander(sys *core.System, raw bool) WorkerExpander
}

// WorkerExpander computes one state's successor moves. Expand returns
// the full enabled move list (possibly reordered) and the length of the
// ample prefix the loop should explore; ample == len(moves) means
// full expansion. The returned slice is owned by the expander and valid
// until the next Expand call on the same worker.
type WorkerExpander interface {
	Expand(ctx *core.ExploreCtx, st core.State, vec [][]core.Move) (moves []core.Move, ample int, err error)
}

// newWorkerExpander resolves the configured expansion stage: the
// full-expansion default when Options.Expander is nil.
func (o Options) newWorkerExpander(sys *core.System) WorkerExpander {
	if o.Expander != nil {
		return o.Expander.NewWorkerExpander(sys, o.Raw)
	}
	return fullWorker{raw: o.Raw}
}

// fullWorker is the default expansion stage: every enabled move, in
// enabled-set order, no reduction. It reuses ctx.Moves as its buffer,
// as the loop's scratch buffer.
type fullWorker struct{ raw bool }

func (f fullWorker) Expand(ctx *core.ExploreCtx, st core.State, vec [][]core.Move) ([]core.Move, int, error) {
	var moves []core.Move
	var err error
	if f.raw {
		moves = ctx.Deriver.Raw(vec, ctx.Moves[:0])
	} else {
		moves, err = ctx.Deriver.Enabled(vec, st, ctx.Moves[:0])
		if err != nil {
			return nil, 0, err
		}
	}
	ctx.Moves = moves
	return moves, len(moves), nil
}

// AmpleExpander is the ample-set partial-order reducer, bound to one
// validated system and one visibility declaration.
type AmpleExpander struct {
	sys *core.System
	// vis is the declaration the expander was built with, kept so a
	// worker for another system can be rebuilt under the same one.
	vis Visibility
	// clusterOK[c]: cluster c may serve as a strict ample set — it is
	// reducible (no priority entanglement) and invisible to the
	// property (no visible interaction, no visible atom).
	clusterOK []bool
	// interCluster[i] caches the cluster of interaction i.
	interCluster []int32
}

// NewAmpleExpander builds the reducer for sys under the given
// visibility. It fails on visibility entries that name unknown
// interactions, and refuses Visibility.All (the caller should simply
// not install an expander — reduction with everything visible is full
// expansion with overhead).
func NewAmpleExpander(sys *core.System, vis Visibility) (*AmpleExpander, error) {
	if vis.All {
		return nil, fmt.Errorf("lts: ample expander with Visibility.All — use full expansion")
	}
	nc := sys.NumClusters()
	a := &AmpleExpander{
		sys:          sys,
		vis:          vis,
		clusterOK:    make([]bool, nc),
		interCluster: make([]int32, len(sys.Interactions)),
	}
	for c := 0; c < nc; c++ {
		a.clusterOK[c] = sys.ClusterReducible(c)
	}
	for i := range sys.Interactions {
		a.interCluster[i] = int32(sys.InteractionCluster(i))
	}
	for _, l := range vis.Labels {
		ii := sys.InteractionIndex(l)
		if ii < 0 {
			return nil, fmt.Errorf("lts: visibility names unknown interaction %q", l)
		}
		a.clusterOK[a.interCluster[ii]] = false
	}
	for _, ai := range vis.Atoms {
		if ai < 0 || ai >= len(sys.Atoms) {
			return nil, fmt.Errorf("lts: visibility names atom index %d out of range", ai)
		}
		a.clusterOK[sys.AtomCluster(ai)] = false
	}
	return a, nil
}

// NewWorkerExpander implements Expander. Given a system other than the
// one the AmpleExpander was built for, it rebuilds the reducer for that
// system under the same visibility (cluster indices do not carry
// across systems), and expands fully if the visibility does not
// resolve there.
func (a *AmpleExpander) NewWorkerExpander(sys *core.System, raw bool) WorkerExpander {
	if sys != a.sys {
		fresh, err := NewAmpleExpander(sys, a.vis)
		if err != nil {
			return fullWorker{raw: raw}
		}
		a = fresh
	}
	return &ampleWorker{
		a:      a,
		full:   fullWorker{raw: raw},
		counts: make([]int32, len(a.clusterOK)),
	}
}

// ampleWorker is the per-worker scratch of the reducer.
type ampleWorker struct {
	a    *AmpleExpander
	full fullWorker
	// buf receives the reordered move list (ample prefix first).
	buf []core.Move
	// counts[c] is the number of enabled moves of cluster c at the
	// current state; touched lists the clusters with a nonzero count so
	// resetting is O(touched).
	counts  []int32
	touched []int32
}

func (w *ampleWorker) Expand(ctx *core.ExploreCtx, st core.State, vec [][]core.Move) ([]core.Move, int, error) {
	moves, _, err := w.full.Expand(ctx, st, vec)
	if err != nil || len(moves) <= 1 {
		return moves, len(moves), err
	}
	a := w.a
	for _, t := range w.touched {
		w.counts[t] = 0
	}
	w.touched = w.touched[:0]
	for _, m := range moves {
		c := a.interCluster[m.Interaction]
		if !a.clusterOK[c] {
			continue
		}
		if w.counts[c] == 0 {
			w.touched = append(w.touched, c)
		}
		w.counts[c]++
	}
	// Smallest eligible cluster wins; ties break toward the smaller
	// cluster index for determinism (touched order depends on the move
	// order, which is itself deterministic, but the explicit tie-break
	// makes the choice independent of it).
	best := int32(-1)
	bestN := int32(len(moves))
	for _, c := range w.touched {
		n := w.counts[c]
		if n < bestN || (n == bestN && (best < 0 || c < best)) {
			best, bestN = c, n
		}
	}
	if best < 0 || bestN >= int32(len(moves)) {
		return moves, len(moves), nil
	}
	// Stable partition: ample cluster's moves first, both halves in
	// enabled-set order.
	w.buf = w.buf[:0]
	for _, m := range moves {
		if a.interCluster[m.Interaction] == best {
			w.buf = append(w.buf, m)
		}
	}
	for _, m := range moves {
		if a.interCluster[m.Interaction] != best {
			w.buf = append(w.buf, m)
		}
	}
	return w.buf, int(bestN), nil
}

// ReducibleClusters reports how many clusters the expander may reduce
// with, out of the system total — a quick diagnostic for "why did
// reduction do nothing" (answer: the connector graph is one entangled
// cluster).
func (a *AmpleExpander) ReducibleClusters() (ok, total int) {
	for _, b := range a.clusterOK {
		if b {
			ok++
		}
	}
	return ok, len(a.clusterOK)
}

// VisibleAtomsByName resolves atom names to a Visibility atom list,
// for callers outside the compiler (tests, tools).
func VisibleAtomsByName(sys *core.System, names ...string) (Visibility, error) {
	v := Visibility{}
	for _, n := range names {
		ai := sys.AtomIndex(n)
		if ai < 0 {
			return v, fmt.Errorf("lts: visibility names unknown component %q", n)
		}
		v.Atoms = append(v.Atoms, ai)
	}
	sort.Ints(v.Atoms)
	return v, nil
}
