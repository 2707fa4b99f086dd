package lts

import (
	"fmt"
	"testing"

	"bip/internal/core"
	"bip/models"
)

// These tests pin the partial-order reduction contract: with an
// AmpleExpander installed, the explored graph is a subset of the full
// LTS that preserves (a) the deadlock states exactly (conditions
// C0/C1), (b) every verdict of a property whose visibility the
// expander was built with (C2 + the cycle proviso C3), and (c) the
// deterministic drivers' bit-identical stream at any worker count.
// Counterexamples reported on the reduced graph must replay as real
// runs of the full semantics.

func ampleFor(t *testing.T, sys *core.System, vis Visibility) *AmpleExpander {
	t.Helper()
	exp, err := NewAmpleExpander(sys, vis)
	if err != nil {
		t.Fatalf("NewAmpleExpander: %v", err)
	}
	return exp
}

// porWorkerCounts are the worker counts the issue pins: sequential,
// moderate, oversubscribed.
var porWorkerCounts = []int{1, 4, 8}

func stateKeySet(l *LTS) map[string]bool {
	sys := l.System()
	out := make(map[string]bool, l.NumStates())
	for i := 0; i < l.NumStates(); i++ {
		out[string(sys.AppendBinaryKey(nil, l.State(i)))] = true
	}
	return out
}

func deadlockKeySet(l *LTS) map[string]bool {
	sys := l.System()
	out := map[string]bool{}
	for _, d := range l.Deadlocks() {
		out[string(sys.AppendBinaryKey(nil, l.State(d)))] = true
	}
	return out
}

func requireSameKeySet(t *testing.T, name string, want, got map[string]bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d keys != %d", name, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("%s: key sets differ (missing %q)", name, k)
		}
	}
}

// requireExactStream compares two deterministic-stream LTSs event for
// event: same numbering, same states, same edge lists.
func requireExactStream(t *testing.T, name string, want, got *LTS) {
	t.Helper()
	if got.NumStates() != want.NumStates() {
		t.Fatalf("%s: %d states != %d", name, got.NumStates(), want.NumStates())
	}
	for i := 0; i < want.NumStates(); i++ {
		if !want.State(i).Equal(got.State(i)) {
			t.Fatalf("%s: state %d differs", name, i)
		}
		we, ge := want.Edges(i), got.Edges(i)
		if len(we) != len(ge) {
			t.Fatalf("%s: state %d has %d edges, want %d", name, i, len(ge), len(we))
		}
		for j := range we {
			if we[j] != ge[j] {
				t.Fatalf("%s: state %d edge %d: %v != %v", name, i, j, ge[j], we[j])
			}
		}
	}
}

// TestDiamondGridAmpleReduction is the showcase: n independent cells
// have a 3^n full space, and the reducer must cut it by well over the
// 5x the issue demands while preserving the deadlock (all cells done)
// exactly, at every worker count and order.
func TestDiamondGridAmpleReduction(t *testing.T) {
	sys, err := models.DiamondGrid(6)
	if err != nil {
		t.Fatal(err)
	}
	full := explore(t, sys, Options{})
	if full.NumStates() != 729 { // 3^6
		t.Fatalf("full diamond-6 space: %d states, want 729", full.NumStates())
	}
	exp := ampleFor(t, sys, Visibility{})
	reduced := explore(t, sys, Options{Expander: exp})
	if reduced.NumStates()*5 > full.NumStates() {
		t.Fatalf("reduction factor below 5x: %d reduced vs %d full states",
			reduced.NumStates(), full.NumStates())
	}
	requireSameKeySet(t, "diamond deadlocks", deadlockKeySet(full), deadlockKeySet(reduced))

	// The reduced deterministic stream is worker-count independent.
	for _, w := range porWorkerCounts[1:] {
		par := explore(t, sys, Options{Expander: exp, Workers: w})
		requireExactStream(t, fmt.Sprintf("reduced det workers=%d", w), reduced, par)
	}
	// The unordered driver may reduce differently, but stays a subset
	// with the same deadlocks.
	fullKeys := stateKeySet(full)
	for _, w := range porWorkerCounts[1:] {
		ws := explore(t, sys, Options{Expander: exp, Workers: w, Order: Unordered})
		for k := range stateKeySet(ws) {
			if !fullKeys[k] {
				t.Fatalf("unordered reduced workers=%d explored a state outside the full LTS", w)
			}
		}
		requireSameKeySet(t, fmt.Sprintf("unordered deadlocks workers=%d", w),
			deadlockKeySet(full), deadlockKeySet(ws))
	}

	stats, err := Stream(sys, Options{Expander: exp}, &DeadlockCheck{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.AmpleStates == 0 || stats.PrunedMoves == 0 {
		t.Fatalf("reduction counters empty on diamond grid: %+v", stats)
	}
}

// porZoo is the reduction differential zoo: a mix of reducible
// (multi-cluster) and irreducible (single entangled cluster) models.
// The irreducible ones pin that the expander degrades to full
// exploration rather than pruning unsoundly.
func porZoo(t *testing.T) []struct {
	name string
	sys  *core.System
} {
	type tc = struct {
		name string
		sys  *core.System
	}
	var cases []tc
	add := func(name string, sys *core.System, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, tc{name: name, sys: sys})
	}
	phil, err := models.Philosophers(4)
	add("philosophers-ctl", stripData(t, phil), err)
	twoPhase, err := models.PhilosophersDeadlocking(3)
	add("philosophers-2p", twoPhase, err)
	rings, err := models.PhilosopherRings(3, 3)
	add("philosopher-rings", stripData(t, rings), err)
	gas, err := models.GasStation(2, 2)
	add("gasstation", gas, err)
	deep, err := models.DeepChain(40)
	add("deep-chain", deep, err)
	diamond, err := models.DiamondGrid(5)
	add("diamond", diamond, err)
	temp, err := models.Temperature(0, 2, 1)
	add("temperature-priorities", temp, err)
	return cases
}

// TestAmpleDifferentialZoo checks, across the zoo, workers 1/4/8 and
// both orders, that reduction with empty visibility preserves the
// deadlock verdict (with replay-valid counterexample) and the deadlock
// state set, and that reduction with a predicate's visibility preserves
// invariant and reachability verdicts for predicates over that atom.
func TestAmpleDifferentialZoo(t *testing.T) {
	for _, c := range porZoo(t) {
		full := explore(t, c.sys, Options{})
		if full.Truncated() {
			t.Fatalf("%s: zoo model unexpectedly truncated", c.name)
		}
		fullKeys := stateKeySet(full)
		fullDead := deadlockKeySet(full)
		wantDL := len(fullDead) > 0

		// Predicate over atom 0: "never reaches the location it holds in
		// the last discovered state". Declaring atom 0 visible is what
		// makes checking it on the reduced graph sound.
		a0loc := full.State(full.NumStates() - 1).Locs[0]
		invPred := func(st core.State) bool { return st.Locs[0] != a0loc }
		wantInvOK, _, _ := full.CheckInvariant(invPred)
		visAtom := Visibility{Atoms: []int{0}}

		expEmpty := ampleFor(t, c.sys, Visibility{})
		expAtom := ampleFor(t, c.sys, visAtom)

		for _, w := range porWorkerCounts {
			for _, order := range []Order{Deterministic, Unordered} {
				name := fmt.Sprintf("%s/workers=%d/order=%v", c.name, w, order)
				opts := Options{Workers: w, Order: order, Expander: expEmpty}

				// Deadlock differential under maximal reduction.
				red := explore(t, c.sys, opts)
				for k := range stateKeySet(red) {
					if !fullKeys[k] {
						t.Fatalf("%s: reduced graph contains a state outside the full LTS", name)
					}
				}
				requireSameKeySet(t, name+"/deadlock-set", fullDead, deadlockKeySet(red))

				dl := &DeadlockCheck{}
				if _, err := Stream(c.sys, opts, dl); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if dl.Found != wantDL {
					t.Fatalf("%s: reduced deadlock verdict %v, full %v", name, dl.Found, wantDL)
				}
				if dl.Found {
					validateRun(t, name+"/deadlock", c.sys, false, dl.Path, func(st core.State) bool {
						ms, err := enabledOf(c.sys, st, false)
						return err == nil && len(ms) == 0
					})
				} else if !dl.Exhaustive {
					t.Fatalf("%s: untruncated reduced run must stay conclusive", name)
				}

				// Invariant differential under atom-0 visibility.
				inv := &InvariantCheck{Pred: invPred}
				iopts := opts
				iopts.Expander = expAtom
				if _, err := Stream(c.sys, iopts, inv); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if inv.Found != !wantInvOK {
					t.Fatalf("%s: reduced invariant verdict found=%v, full ok=%v", name, inv.Found, wantInvOK)
				}
				if inv.Found {
					validateRun(t, name+"/invariant", c.sys, false, inv.Path, func(st core.State) bool {
						return !invPred(st)
					})
				}

				// Reachability differential under the same visibility.
				reach := &ReachCheck{Pred: func(st core.State) bool { return !invPred(st) }}
				if _, err := Stream(c.sys, iopts, reach); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if reach.Found != !wantInvOK {
					t.Fatalf("%s: reduced reach verdict found=%v, full %v", name, reach.Found, !wantInvOK)
				}
			}
		}

		// The deterministic reduced stream is identical across worker
		// counts (the Unordered one is exempt by contract).
		seqRed := explore(t, c.sys, Options{Expander: expEmpty})
		for _, w := range porWorkerCounts[1:] {
			par := explore(t, c.sys, Options{Expander: expEmpty, Workers: w})
			requireExactStream(t, fmt.Sprintf("%s/det-stream workers=%d", c.name, w), seqRed, par)
		}
	}
}

// TestProvisoEscapesToggleCycles pins the cycle proviso: DeepChain's
// toggle components cycle in two steps, so a proviso-free reducer that
// keeps picking a toggle cluster would revisit its two states forever
// and conclude without ever advancing the counter. The escalations must
// fire and the counter's end location must stay reachable.
func TestProvisoEscapesToggleCycles(t *testing.T) {
	sys, err := models.DeepChain(30)
	if err != nil {
		t.Fatal(err)
	}
	ctr := sys.AtomIndex("ctr")
	vis, err := VisibleAtomsByName(sys, "ctr")
	if err != nil {
		t.Fatal(err)
	}
	exp := ampleFor(t, sys, vis)
	for _, w := range porWorkerCounts {
		for _, order := range []Order{Deterministic, Unordered} {
			name := fmt.Sprintf("workers=%d/order=%v", w, order)
			reach := &ReachCheck{Pred: func(st core.State) bool { return st.Locs[ctr] == "end" }}
			stats, err := Stream(sys, Options{Workers: w, Order: order, Expander: exp}, reach)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reach.Found {
				t.Fatalf("%s: reduced exploration lost the counter's end state", name)
			}
			validateRun(t, name, sys, false, reach.Path, func(st core.State) bool {
				return st.Locs[ctr] == "end"
			})
			_ = stats
		}
	}
	// Sequential full-space run: the toggles guarantee escalations.
	stats, err := Stream(sys, Options{Expander: ampleFor(t, sys, Visibility{})}, &noopSink{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ProvisoFallbacks == 0 {
		t.Fatalf("expected cycle-proviso fallbacks on deep-chain, got %+v", stats)
	}
}

// TestAmpleVisibilityPinsCluster checks C2 directly: making one
// diamond cell visible (by label or by atom) keeps every move of that
// cell's cluster unpruned, so a property watching it keeps its
// counterexample.
func TestAmpleVisibilityPinsCluster(t *testing.T) {
	sys, err := models.DiamondGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	c3 := sys.AtomIndex("c3")
	done := func(st core.State) bool { return st.Locs[c3] == "s2" }

	for _, vis := range []Visibility{
		{Labels: []string{"a3", "b3"}},
		{Atoms: []int{c3}},
	} {
		exp := ampleFor(t, sys, vis)
		reach := &ReachCheck{Pred: done}
		if _, err := Stream(sys, Options{Expander: exp}, reach); err != nil {
			t.Fatal(err)
		}
		if !reach.Found {
			t.Fatalf("visibility %+v: reduction lost cell c3's completion", vis)
		}
		validateRun(t, "visible-cell", sys, false, reach.Path, done)
	}

	// Sanity check on the helper errors.
	if _, err := NewAmpleExpander(sys, Visibility{All: true}); err == nil {
		t.Fatal("NewAmpleExpander must refuse Visibility.All")
	}
	if _, err := NewAmpleExpander(sys, Visibility{Labels: []string{"nope"}}); err == nil {
		t.Fatal("NewAmpleExpander must refuse unknown labels")
	}
}

// TestAmpleForeignSystemKeepsVisibility: an expander handed a system
// other than the one it was built for applies the same visibility to
// that system, so it prunes no move the property observes; and when
// the visibility does not resolve there, the worker expands fully.
func TestAmpleForeignSystemKeepsVisibility(t *testing.T) {
	build := func(n int) *core.System {
		sys, err := models.DiamondGrid(n)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	vis := Visibility{Labels: []string{"a3", "b3"}}
	own, foreign := build(5), build(5)
	requireExactStream(t, "expander from another system",
		explore(t, foreign, Options{Expander: ampleFor(t, foreign, vis)}),
		explore(t, foreign, Options{Expander: ampleFor(t, own, vis)}))

	// DiamondGrid(3) has no a3/b3: the rebuild fails and the worker
	// falls back to full expansion (3^3 states).
	if got := explore(t, build(3), Options{Expander: ampleFor(t, own, vis)}); got.NumStates() != 27 {
		t.Fatalf("unresolvable visibility explored %d states, want the full 27", got.NumStates())
	}
}

// noopSink drops the stream; used to read bare Stats.
type noopSink struct{}

func (noopSink) OnState(int, core.State, Discovery) error { return nil }
func (noopSink) OnEdge(int, int, string) error            { return nil }
func (noopSink) OnExpanded(int, int) error                { return nil }
func (noopSink) Done(bool) error                          { return nil }
