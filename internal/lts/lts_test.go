package lts

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"bip/internal/behavior"
	"bip/internal/core"
	"bip/models"
)

func explore(t *testing.T, sys *core.System, opts Options) *LTS {
	t.Helper()
	l, err := Explore(sys, opts)
	if err != nil {
		t.Fatalf("Explore(%s): %v", sys.Name, err)
	}
	return l
}

func TestPhilosophersDeadlockFree(t *testing.T) {
	sys, err := models.Philosophers(3)
	if err != nil {
		t.Fatal(err)
	}
	// Bound meals to keep the space finite: replace is unnecessary — the
	// meals counter grows without bound, so explore with location-only
	// abstraction is infeasible. Instead, use the structure-only variant
	// by stripping the counter: rebuild philosophers without data.
	l := explore(t, stripData(t, sys), Options{})
	if free, err := l.DeadlockFree(); err != nil || !free {
		t.Fatalf("multiparty philosophers should be deadlock-free: %v, %v", free, err)
	}
	if l.NumStates() == 0 || l.NumTransitions() == 0 {
		t.Fatal("empty exploration")
	}
}

func TestPhilosophersTwoPhaseDeadlocks(t *testing.T) {
	sys, err := models.PhilosophersDeadlocking(3)
	if err != nil {
		t.Fatal(err)
	}
	l := explore(t, sys, Options{})
	dls := l.Deadlocks()
	if len(dls) == 0 {
		t.Fatal("two-phase philosophers must reach the circular-wait deadlock")
	}
	// The deadlock state has every philosopher holding their left fork.
	st := l.State(dls[0])
	for i, loc := range st.Locs {
		if sys.Atoms[i].Name[:4] == "phil" && loc != "hasLeft" {
			t.Fatalf("deadlock state: %s at %q, want hasLeft", sys.Atoms[i].Name, loc)
		}
	}
	// The path must replay to that state.
	path := l.PathTo(dls[0])
	if len(path) != 3 {
		t.Fatalf("deadlock path = %v, want 3 getL steps", path)
	}
	for _, lab := range path {
		if !strings.HasPrefix(lab, "getL") {
			t.Fatalf("deadlock path = %v, want only getL steps", path)
		}
	}
}

// stripData rebuilds a system with all variables and data removed,
// keeping only the control structure. Used to make counter-bearing models
// finite-state for exploration.
func stripData(t *testing.T, sys *core.System) *core.System {
	t.Helper()
	b := core.NewSystem(sys.Name + "-ctl")
	for _, a := range sys.Atoms {
		nb := behavior.NewBuilder(a.Name).Location(a.Locations...).Initial(a.Initial)
		for _, p := range a.Ports {
			nb.Port(p.Name)
		}
		for _, tr := range a.Transitions {
			nb.Transition(tr.From, tr.Port, tr.To)
		}
		atom, err := nb.Build()
		if err != nil {
			t.Fatalf("stripData: %v", err)
		}
		b.Add(atom)
	}
	for _, in := range sys.Interactions {
		b.Connect(in.Name, in.Ports...)
	}
	out, err := b.Build()
	if err != nil {
		t.Fatalf("stripData: %v", err)
	}
	return out
}

func TestTruncation(t *testing.T) {
	sys, err := models.ProducerConsumer(1000)
	if err != nil {
		t.Fatal(err)
	}
	l := explore(t, sys, Options{MaxStates: 50})
	if !l.Truncated() {
		t.Fatal("exploration of a large space with MaxStates=50 must truncate")
	}
	if _, err := l.DeadlockFree(); err == nil {
		t.Fatal("DeadlockFree on truncated LTS must refuse to answer")
	}
}

func TestElevatorRequirement(t *testing.T) {
	safe, err := models.Elevator(3)
	if err != nil {
		t.Fatal(err)
	}
	l := explore(t, safe, Options{})
	ok, _, _ := l.CheckInvariant(func(st core.State) bool {
		return !models.MovingWithDoorOpen(safe)(st)
	})
	if !ok {
		t.Fatal("safe elevator must never move with the door open")
	}

	unsafe, err := models.UnsafeElevator(3)
	if err != nil {
		t.Fatal(err)
	}
	lu := explore(t, unsafe, Options{})
	ok, bad, path := lu.CheckInvariant(func(st core.State) bool {
		return !models.MovingWithDoorOpen(unsafe)(st)
	})
	if ok {
		t.Fatal("unsafe elevator must violate the requirement")
	}
	if len(path) == 0 {
		t.Fatalf("violation at state %d should have a non-empty path", bad)
	}
}

func TestGCDInvariant(t *testing.T) {
	sys, err := models.GCD(36, 60)
	if err != nil {
		t.Fatal(err)
	}
	want := models.GCDInt(36, 60)
	gi := sys.AtomIndex("gcd")
	l := explore(t, sys, Options{})
	ok, _, _ := l.CheckInvariant(func(st core.State) bool {
		x, _ := st.Vars[gi].Get("x")
		y, _ := st.Vars[gi].Get("y")
		xi, _ := x.Int()
		yi, _ := y.Int()
		return models.GCDInt(xi, yi) == want
	})
	if !ok {
		t.Fatal("Fig 6.1 invariant GCD(x,y)=GCD(x0,y0) must hold on every reachable state")
	}
	// Termination: the final state has x == y == gcd.
	fin, found := l.FindState(func(st core.State) bool { return st.Locs[gi] == "done" })
	if !found {
		t.Fatal("GCD program should reach done")
	}
	x, _ := l.State(fin).Vars[gi].Get("x")
	if xi, _ := x.Int(); xi != want {
		t.Fatalf("final x = %d, want gcd %d", xi, want)
	}
}

func TestPriorityVsRawExploration(t *testing.T) {
	sys, err := models.Temperature(0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := explore(t, sys, Options{MaxStates: 10000})
	lr := explore(t, sys, Options{MaxStates: 10000, Raw: true})
	if lr.NumTransitions() < l.NumTransitions() {
		t.Fatalf("raw exploration (%d transitions) cannot have fewer than prioritized (%d)",
			lr.NumTransitions(), l.NumTransitions())
	}
}

func TestBisimilarIdentical(t *testing.T) {
	sys, err := models.Philosophers(2)
	if err != nil {
		t.Fatal(err)
	}
	s := stripData(t, sys)
	l1 := explore(t, s, Options{})
	l2 := explore(t, s, Options{})
	if !Bisimilar(l1, l2, nil, nil) {
		t.Fatal("a system must be bisimilar to itself")
	}
}

func TestBisimilarDistinguishes(t *testing.T) {
	// a: can always fire p. b: fires p once then stops.
	always := behavior.NewBuilder("x").Location("s").Port("p").
		Transition("s", "p", "s").MustBuild()
	once := behavior.NewBuilder("x").Location("s", "t").Port("p").
		Transition("s", "p", "t").MustBuild()
	sa := core.NewSystem("a").Add(always).Singleton("x", "p").MustBuild()
	sb := core.NewSystem("b").Add(once).Singleton("x", "p").MustBuild()
	la := explore(t, sa, Options{})
	lb := explore(t, sb, Options{})
	if Bisimilar(la, lb, nil, nil) {
		t.Fatal("loop and one-shot must not be bisimilar")
	}
}

func TestBisimilarUpToRelabeling(t *testing.T) {
	// E13 core case: a nested composite is bisimilar to its flat
	// counterpart modulo the path prefix on interaction names.
	ping := behavior.NewBuilder("ping").
		Location("a", "b").
		Port("hit").Port("back").
		Transition("a", "hit", "b").
		Transition("b", "back", "a").
		MustBuild()

	inner := core.NewComposite("inner").
		Atom("l", ping).
		Atom("r", ping).
		Connect("hit", core.P("l", "hit"), core.P("r", "hit")).
		Connect("back", core.P("l", "back"), core.P("r", "back")).
		Build()
	nested, err := core.Flatten(core.NewComposite("sys").Sub(inner).Build())
	if err != nil {
		t.Fatal(err)
	}
	flat := core.NewSystem("flat").
		AddAs("l", ping).AddAs("r", ping).
		Connect("hit", core.P("l", "hit"), core.P("r", "hit")).
		Connect("back", core.P("l", "back"), core.P("r", "back")).
		MustBuild()

	ln := explore(t, nested, Options{})
	lf := explore(t, flat, Options{})
	if Bisimilar(ln, lf, nil, nil) {
		t.Fatal("labels differ, plain bisimulation should fail (sanity)")
	}
	strip := func(label string) (string, bool) {
		return strings.TrimPrefix(label, "inner/"), true
	}
	if !Bisimilar(ln, lf, strip, nil) {
		t.Fatal("nested and flat systems must be bisimilar up to path prefixes")
	}
}

func TestObsTraceInclusion(t *testing.T) {
	// spec: a single visible step v. impl: silent step s then visible v.
	spec := behavior.NewBuilder("x").Location("s", "t").Port("v").
		Transition("s", "v", "t").MustBuild()
	impl := behavior.NewBuilder("x").Location("s", "m", "t").Port("h").Port("v").
		Transition("s", "h", "m").
		Transition("m", "v", "t").MustBuild()
	ss := core.NewSystem("spec").Add(spec).Singleton("x", "v").MustBuild()
	si := core.NewSystem("impl").Add(impl).Singleton("x", "h").Singleton("x", "v").MustBuild()
	ls := explore(t, ss, Options{})
	li := explore(t, si, Options{})

	if ok, _ := ObsTraceIncluded(li, ls, Hide("x.h"), nil); !ok {
		t.Fatal("impl traces (h hidden) must be included in spec traces")
	}
	if !ObsTraceEquivalent(li, ls, Hide("x.h"), nil) {
		t.Fatal("impl and spec must be observationally trace-equivalent")
	}
	// Without hiding, inclusion fails and yields the distinguishing
	// trace [x.h].
	ok, trace := ObsTraceIncluded(li, ls, nil, nil)
	if ok {
		t.Fatal("unhidden impl must not be included in spec")
	}
	if len(trace) != 1 || trace[0] != "x.h" {
		t.Fatalf("distinguishing trace = %v, want [x.h]", trace)
	}
}

func TestObsTraceInclusionStrict(t *testing.T) {
	// spec allows a|b, impl only a: impl ⊆ spec but not conversely.
	two := behavior.NewBuilder("x").Location("s", "t").Port("a").Port("b").
		Transition("s", "a", "t").
		Transition("s", "b", "t").MustBuild()
	one := behavior.NewBuilder("x").Location("s", "t").Port("a").Port("b").
		Transition("s", "a", "t").MustBuild()
	sspec := core.NewSystem("spec").Add(two).Singleton("x", "a").Singleton("x", "b").MustBuild()
	simpl := core.NewSystem("impl").Add(one).Singleton("x", "a").Singleton("x", "b").MustBuild()
	ls := explore(t, sspec, Options{})
	li := explore(t, simpl, Options{})
	if ok, _ := ObsTraceIncluded(li, ls, nil, nil); !ok {
		t.Fatal("impl ⊆ spec must hold")
	}
	ok, trace := ObsTraceIncluded(ls, li, nil, nil)
	if ok {
		t.Fatal("spec ⊄ impl")
	}
	if len(trace) != 1 || trace[0] != "x.b" {
		t.Fatalf("distinguishing trace = %v, want [x.b]", trace)
	}
}

func TestMapLabelsAndLabelSet(t *testing.T) {
	r := MapLabels(map[string]string{"a": "b", "c": ""})
	if l, ok := r("a"); !ok || l != "b" {
		t.Fatalf("MapLabels(a) = %q,%v", l, ok)
	}
	if _, ok := r("c"); ok {
		t.Fatal("MapLabels(c) should be silent")
	}
	if l, ok := r("z"); !ok || l != "z" {
		t.Fatalf("MapLabels(z) = %q,%v", l, ok)
	}

	sys, err := models.Philosophers(2)
	if err != nil {
		t.Fatal(err)
	}
	l := explore(t, stripData(t, sys), Options{})
	labels := l.LabelSet()
	if len(labels) != 4 { // eat0, eat1, put0, put1
		t.Fatalf("LabelSet = %v", labels)
	}
}

func TestProducerConsumerBufferInvariant(t *testing.T) {
	sys, err := models.ProducerConsumer(2)
	if err != nil {
		t.Fatal(err)
	}
	// The producer/consumer counters grow unboundedly; bound exploration
	// and check the buffer occupancy invariant on the explored prefix.
	l := explore(t, sys, Options{MaxStates: 2000})
	ok, bad, _ := l.CheckInvariant(func(st core.State) bool {
		return sys.CheckInvariants(st) == nil
	})
	if !ok {
		t.Fatalf("buffer invariant violated at state %d", bad)
	}
}

// requireSameLTS asserts bit-for-bit agreement of two explorations on
// the deterministic stream: state lists, edge lists (order included),
// the BFS tree, deadlock sets, truncation — everything — must coincide.
func requireSameLTS(t *testing.T, name string, a, b *LTS) {
	t.Helper()
	if a.NumStates() != b.NumStates() {
		t.Fatalf("%s: NumStates %d != %d", name, a.NumStates(), b.NumStates())
	}
	if a.NumTransitions() != b.NumTransitions() {
		t.Fatalf("%s: NumTransitions %d != %d", name, a.NumTransitions(), b.NumTransitions())
	}
	if a.Truncated() != b.Truncated() {
		t.Fatalf("%s: Truncated %v != %v", name, a.Truncated(), b.Truncated())
	}
	for i := 0; i < a.NumStates(); i++ {
		if !a.State(i).Equal(b.State(i)) {
			t.Fatalf("%s: state %d differs", name, i)
		}
		ea, eb := a.Edges(i), b.Edges(i)
		if len(ea) != len(eb) {
			t.Fatalf("%s: state %d has %d vs %d edges", name, i, len(ea), len(eb))
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("%s: state %d edge %d: %+v != %+v", name, i, j, ea[j], eb[j])
			}
		}
		if a.parent[i] != b.parent[i] || a.parentLabel[i] != b.parentLabel[i] {
			t.Fatalf("%s: BFS tree differs at state %d: (%d,%q) != (%d,%q)",
				name, i, a.parent[i], a.parentLabel[i], b.parent[i], b.parentLabel[i])
		}
	}
	da, db := a.Deadlocks(), b.Deadlocks()
	if len(da) != len(db) {
		t.Fatalf("%s: deadlock sets differ: %v vs %v", name, da, db)
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("%s: deadlock sets differ: %v vs %v", name, da, db)
		}
	}
}

func workerCounts() []int {
	out := []int{2, 4}
	if g := runtime.GOMAXPROCS(0); g > 1 && g != 2 && g != 4 {
		out = append(out, g)
	}
	return out
}

// TestExploreWorkersDefaults pins the Workers knob under the default
// Deterministic order: 0, 1, any n > 1 and a negative value (GOMAXPROCS)
// all run the sequential explorer, so the LTS is bit-identical to the
// one-worker run — on an exhaustive space and on a MaxStates-truncated
// one.
func TestExploreWorkersDefaults(t *testing.T) {
	gcd, err := models.GCD(35, 14)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := models.ProducerConsumer(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sys  *core.System
		opts Options
	}{
		{"gcd", gcd, Options{}},
		{"prodcons-truncated", pc, Options{MaxStates: 1500}},
	}
	for _, c := range cases {
		one := c.opts
		one.Workers = 1
		ref := explore(t, c.sys, one)
		if want := c.opts.MaxStates > 0; ref.Truncated() != want {
			t.Fatalf("%s: truncated = %v, want %v", c.name, ref.Truncated(), want)
		}
		for _, w := range append([]int{0, -1}, workerCounts()...) {
			opts := c.opts
			opts.Workers = w
			requireSameLTS(t, fmt.Sprintf("%s/workers=%d", c.name, w), ref, explore(t, c.sys, opts))
		}
	}
}
