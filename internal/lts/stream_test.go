package lts

import (
	"fmt"
	"testing"

	"bip/internal/behavior"
	"bip/internal/core"
	"bip/internal/expr"
	"bip/models"
)

// streamVerdicts runs the three on-the-fly checkers over one streaming
// exploration and returns them alongside the run's stats.
func streamVerdicts(t *testing.T, sys *core.System, opts Options, invPred, reachPred func(core.State) bool) (*DeadlockCheck, *InvariantCheck, *ReachCheck, Stats) {
	t.Helper()
	dl := &DeadlockCheck{}
	inv := &InvariantCheck{Pred: invPred}
	reach := &ReachCheck{Pred: reachPred}
	stats, err := Stream(sys, opts, NewMulti(dl, inv, reach))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	return dl, inv, reach, stats
}

func samePath(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamCheckersMatchMaterialized is the streaming-vs-materialized
// differential: across the model zoo and at workers 1 and 4, every
// checker verdict — deadlock, invariant, reachability, the violating
// state id and the counterexample/witness path — must be bit-identical
// to the corresponding analysis on the materialized LTS.
func TestStreamCheckersMatchMaterialized(t *testing.T) {
	type tc struct {
		name string
		sys  *core.System
		opts Options
	}
	var cases []tc
	add := func(name string, sys *core.System, err error, opts Options) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, tc{name: name, sys: sys, opts: opts})
	}
	phil, err := models.Philosophers(3)
	add("philosophers-ctl", stripData(t, phil), err, Options{})
	twoPhase, err := models.PhilosophersDeadlocking(3)
	add("philosophers-2p", twoPhase, err, Options{})
	temp, err := models.Temperature(0, 2, 1)
	add("temperature-priorities", temp, err, Options{MaxStates: 10000})
	philRaw, err := models.Philosophers(3)
	add("philosophers-raw", stripData(t, philRaw), err, Options{Raw: true})
	unsafe, err := models.UnsafeElevator(4)
	add("unsafe-elevator", unsafe, err, Options{})
	gas, err := models.GasStation(2, 2)
	add("gasstation", gas, err, Options{})
	gcd, err := models.GCD(36, 60)
	add("gcd", gcd, err, Options{})

	for _, c := range cases {
		l := explore(t, c.sys, c.opts)
		if l.Truncated() {
			t.Fatalf("%s: zoo case unexpectedly truncated", c.name)
		}
		n := l.NumStates()
		// The invariant is violated exactly at a mid-exploration state,
		// the reach target is the last discovered state — both verdicts
		// (id and path) are then pinned against the BFS tree.
		midState, lastState := l.State(n/2), l.State(n-1)
		invPred := func(st core.State) bool { return !st.Equal(midState) }
		reachPred := func(st core.State) bool { return st.Equal(lastState) }

		wantInvOK, wantInvState, wantInvPath := l.CheckInvariant(invPred)
		wantDL := l.Deadlocks()
		wantReachState, _ := l.FindState(reachPred)
		wantReachPath := l.PathTo(wantReachState)

		for _, w := range []int{1, 4} {
			name := fmt.Sprintf("%s/workers=%d", c.name, w)
			opts := c.opts
			opts.Workers = w
			dl, inv, reach, _ := streamVerdicts(t, c.sys, opts, invPred, reachPred)

			if dl.Found != (len(wantDL) > 0) {
				t.Fatalf("%s: deadlock found=%v, materialized has %d deadlocks", name, dl.Found, len(wantDL))
			}
			if dl.Found {
				if dl.State != wantDL[0] {
					t.Fatalf("%s: deadlock state %d, materialized first deadlock %d", name, dl.State, wantDL[0])
				}
				if want := l.PathTo(wantDL[0]); !samePath(dl.Path, want) {
					t.Fatalf("%s: deadlock path %v != %v", name, dl.Path, want)
				}
			} else if !dl.Exhaustive {
				t.Fatalf("%s: no deadlock found but coverage not exhaustive", name)
			}

			if inv.Found == wantInvOK {
				t.Fatalf("%s: invariant found=%v, materialized ok=%v", name, inv.Found, wantInvOK)
			}
			if inv.Found {
				if inv.State != wantInvState || !samePath(inv.Path, wantInvPath) {
					t.Fatalf("%s: invariant verdict (%d,%v) != materialized (%d,%v)",
						name, inv.State, inv.Path, wantInvState, wantInvPath)
				}
			}

			if !reach.Found {
				t.Fatalf("%s: reach target (last state) not found", name)
			}
			if reach.State != wantReachState || !samePath(reach.Path, wantReachPath) {
				t.Fatalf("%s: reach verdict (%d,%v) != materialized (%d,%v)",
					name, reach.State, reach.Path, wantReachState, wantReachPath)
			}
		}
	}
}

// TestStreamTruncationInconclusive pins the truncated-space contract:
// the streaming deadlock checker must refuse to conclude (not
// exhaustive, nothing found) exactly where the materialized
// DeadlockFree refuses to answer.
func TestStreamTruncationInconclusive(t *testing.T) {
	sys, err := models.ProducerConsumer(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxStates: 1500}
	l := explore(t, sys, opts)
	if !l.Truncated() {
		t.Fatal("bounded exploration of the unbounded producer/consumer must truncate")
	}
	if _, err := l.DeadlockFree(); err == nil {
		t.Fatal("materialized DeadlockFree on truncated LTS must refuse to answer")
	}
	for _, w := range []int{1, 4} {
		dl := &DeadlockCheck{}
		stats, err := Stream(sys, opts, dl)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !stats.Truncated {
			t.Fatalf("workers=%d: stats must record truncation", w)
		}
		if dl.Found || dl.Exhaustive {
			t.Fatalf("workers=%d: truncated deadlock check must be inconclusive (found=%v exhaustive=%v)",
				w, dl.Found, dl.Exhaustive)
		}
		if stats.States != l.NumStates() || stats.Transitions != l.NumTransitions() {
			t.Fatalf("workers=%d: stats (%d,%d) != materialized (%d,%d)",
				w, stats.States, stats.Transitions, l.NumStates(), l.NumTransitions())
		}
	}
}

// TestStreamEarlyExit is the acceptance check for on-the-fly
// verification: on violating models the checkers stop the exploration
// before the full state space is visited (asserted against the
// materialized state count), at one and several workers, with identical
// verdicts.
func TestStreamEarlyExit(t *testing.T) {
	// Invariant violation: the unsafe elevator breaks the requirement a
	// few states into a larger space.
	unsafe, err := models.UnsafeElevator(4)
	if err != nil {
		t.Fatal(err)
	}
	full := explore(t, unsafe, Options{})
	bad := models.MovingWithDoorOpen(unsafe)
	wantOK, wantState, wantPath := full.CheckInvariant(func(st core.State) bool { return !bad(st) })
	if wantOK {
		t.Fatal("unsafe elevator must violate the requirement")
	}
	for _, w := range []int{1, 4} {
		inv := &InvariantCheck{Pred: func(st core.State) bool { return !bad(st) }}
		stats, err := Stream(unsafe, Options{Workers: w}, inv)
		if err != nil {
			t.Fatal(err)
		}
		if !inv.Found || inv.State != wantState || !samePath(inv.Path, wantPath) {
			t.Fatalf("workers=%d: verdict (%v,%d,%v) != materialized (%d,%v)",
				w, inv.Found, inv.State, inv.Path, wantState, wantPath)
		}
		if !stats.Stopped {
			t.Fatalf("workers=%d: early violation must stop the exploration", w)
		}
		if stats.States >= full.NumStates() {
			t.Fatalf("workers=%d: visited %d states, full space is %d — no early exit",
				w, stats.States, full.NumStates())
		}
	}

	// Deadlock: a chooser that can die at depth 1 next to a 1000-step
	// counter — the deadlock is the third state of a ~2000-state space,
	// so the checker must settle it having seen only a handful of
	// states.
	sys := deepDeadlockSystem(t)
	fullDL := explore(t, sys, Options{})
	wantFirst := fullDL.Deadlocks()[0]
	for _, w := range []int{1, 4} {
		dl := &DeadlockCheck{}
		stats, err := Stream(sys, Options{Workers: w}, dl)
		if err != nil {
			t.Fatal(err)
		}
		if !dl.Found || dl.State != wantFirst || !samePath(dl.Path, fullDL.PathTo(wantFirst)) {
			t.Fatalf("workers=%d: deadlock verdict (%v,%d,%v) != materialized (%d,%v)",
				w, dl.Found, dl.State, dl.Path, wantFirst, fullDL.PathTo(wantFirst))
		}
		if !stats.Stopped {
			t.Fatalf("workers=%d: deadlock must stop the exploration", w)
		}
		if stats.States >= fullDL.NumStates()/10 {
			t.Fatalf("workers=%d: visited %d of %d states — not an early exit",
				w, stats.States, fullDL.NumStates())
		}
	}
}

// deepDeadlockSystem builds a space with an early deadlock in BFS order
// inside a deep graph: component a can either step in lockstep with a
// 1000-bounded counter or die into a stuck location (a global deadlock,
// since the counter only moves with a). The first deadlock is reached
// after one step; the bulk of the ~2000 states lies a thousand levels
// deeper.
func deepDeadlockSystem(t *testing.T) *core.System {
	t.Helper()
	a := behavior.NewBuilder("a").
		Location("run", "stuck").
		Port("go").Port("die").
		Transition("run", "go", "run").
		Transition("run", "die", "stuck").
		MustBuild()
	b := behavior.NewBuilder("b").
		Location("s").
		Int("x", 0).
		Port("step", "x").
		TransitionG("s", "step", "s", expr.Lt(expr.V("x"), expr.I(1000)),
			expr.Set("x", expr.Add(expr.V("x"), expr.I(1)))).
		MustBuild()
	sys, err := core.NewSystem("deep-deadlock").
		Add(a).Add(b).
		Connect("advance", core.P("a", "go"), core.P("b", "step")).
		Singleton("a", "die").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestStreamFrontierMemory pins the streaming memory contract on a
// workload with a deep, narrow-ish graph: the peak frontier the driver
// retains is a small fraction of the visited states the materialized
// LTS would hold.
func TestStreamFrontierMemory(t *testing.T) {
	sys, err := models.PhilosopherRings(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := models.ControlOnly(sys)
	if err != nil {
		t.Fatal(err)
	}
	dl := &DeadlockCheck{}
	stats, err := Stream(ctl, Options{}, dl)
	if err != nil {
		t.Fatal(err)
	}
	if !dl.Exhaustive {
		t.Fatal("rings control space must be fully covered")
	}
	if stats.PeakFrontier >= stats.States/2 {
		t.Fatalf("peak frontier %d vs %d states: streaming retained too much", stats.PeakFrontier, stats.States)
	}
}

// TestMultiSettlesIndependently checks Multi's retirement protocol: a
// checker that finds its violation retires early while the others keep
// consuming to full coverage.
func TestMultiSettlesIndependently(t *testing.T) {
	unsafe, err := models.UnsafeElevator(4)
	if err != nil {
		t.Fatal(err)
	}
	bad := models.MovingWithDoorOpen(unsafe)
	inv := &InvariantCheck{Pred: func(st core.State) bool { return !bad(st) }}
	dl := &DeadlockCheck{}
	stats, err := Stream(unsafe, Options{}, NewMulti(inv, dl))
	if err != nil {
		t.Fatal(err)
	}
	full := explore(t, unsafe, Options{})
	if !inv.Found {
		t.Fatal("invariant checker must find the violation")
	}
	if stats.States != full.NumStates() {
		t.Fatalf("deadlock checker still active: exploration must cover all %d states, visited %d",
			full.NumStates(), stats.States)
	}
	free, err := full.DeadlockFree()
	if err != nil {
		t.Fatal(err)
	}
	if dl.Found == free {
		t.Fatalf("deadlock verdicts diverge: stream found=%v, materialized free=%v", dl.Found, free)
	}
	if !dl.Found && !dl.Exhaustive {
		t.Fatal("deadlock checker ran to the end; coverage must be exhaustive")
	}
}

// TestStoppedStatsCountWhatTheSinkSaw pins the Stats contract of a
// stopped run on both frontiers: States is the number of OnState calls
// the sink received (the stopping one included) and Transitions the
// number of OnEdge calls — successors the stopping expansion admitted
// but never announced are not counted. The stop lands at several
// points, including the middle of an expansion.
func TestStoppedStatsCountWhatTheSinkSaw(t *testing.T) {
	sys, err := models.CounterGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		opts Options
	}{
		{"fifo", Options{}},
		{"deques-4w", Options{Workers: 4, Order: Unordered}},
	} {
		for _, limit := range []int{1, 2, 42, 100} {
			sink := &countStopSink{limit: limit}
			stats, err := Stream(sys, f.opts, sink)
			if err != nil {
				t.Fatalf("%s/stop@%d: %v", f.name, limit, err)
			}
			if !stats.Stopped || stats.Truncated {
				t.Fatalf("%s/stop@%d: stopped=%v truncated=%v, want a clean stop", f.name, limit, stats.Stopped, stats.Truncated)
			}
			if stats.States != limit || sink.states != limit || stats.Transitions != sink.edges {
				t.Fatalf("%s/stop@%d: stats %d states/%d transitions, sink saw %d/%d",
					f.name, limit, stats.States, stats.Transitions, sink.states, sink.edges)
			}
		}
	}
}

// countStopSink counts OnState and OnEdge calls and stops at the
// limit-th OnState.
type countStopSink struct{ limit, states, edges int }

func (s *countStopSink) OnState(int, core.State, Discovery) error {
	s.states++
	if s.states == s.limit {
		return ErrStop
	}
	return nil
}
func (s *countStopSink) OnEdge(int, int, string) error { s.edges++; return nil }
func (s *countStopSink) OnExpanded(int, int) error     { return nil }
func (s *countStopSink) Done(bool) error               { return nil }

// TestTruncatedSeenHoldsOnlyAdmitted pins that a successor refused by
// MaxStates never enters the seen set: a truncated FIFO run reports the
// SeenBytes of a set holding exactly its MaxStates admitted keys, not
// those keys plus the frontier's unadmitted successors.
func TestTruncatedSeenHoldsOnlyAdmitted(t *testing.T) {
	sys, err := models.CounterGrid(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	width := sys.BinaryKeyWidth()
	for _, seen := range []SeenSets{ExactSeen{}, CompactSeen{}} {
		// 700 admitted keys stay under the initial table's 3/4 load;
		// the next BFS level's unadmitted successors would push a
		// tombstone-keeping set past it.
		const limit = 700
		want := seen.NewSeenSet(width)
		sink := &keySink{sys: sys, set: want}
		stats, err := Stream(sys, Options{MaxStates: limit, Seen: seen}, sink)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Truncated || stats.States != limit || sink.n != limit {
			t.Fatalf("%T: truncated=%v states=%d announced=%d, want a run cut at %d", seen, stats.Truncated, stats.States, sink.n, limit)
		}
		if stats.SeenBytes != want.Bytes() {
			t.Fatalf("%T: SeenBytes %d, a set of the %d admitted keys holds %d", seen, stats.SeenBytes, limit, want.Bytes())
		}
	}
}

// keySink adds every announced state's key to set.
type keySink struct {
	sys *core.System
	set SeenSet
	n   int
}

func (s *keySink) OnState(id int, st core.State, _ Discovery) error {
	key := s.sys.AppendBinaryKey(nil, st)
	s.set.Add(hashKey(key), key, int32(id))
	s.n++
	return nil
}
func (s *keySink) OnEdge(int, int, string) error { return nil }
func (s *keySink) OnExpanded(int, int) error     { return nil }
func (s *keySink) Done(bool) error               { return nil }
