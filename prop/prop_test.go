// Black-box tests of the property algebra: everything here goes through
// the public surface (bip, bip/check, bip/models, bip/prop), the way an
// external consumer would — make apicheck enforces that this file stays
// free of bip/internal imports.
package prop_test

import (
	"strings"
	"testing"

	"bip"
	"bip/check"
	"bip/models"
	"bip/prop"
)

// compileOn compiles p against sys, failing the test on error.
func compileOn(t *testing.T, sys *bip.System, p prop.Prop) *prop.Compiled {
	t.Helper()
	cp, err := prop.Compile(sys, p)
	if err != nil {
		t.Fatalf("compile %s: %v", p, err)
	}
	return cp
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

// pair is one product state of the oracle.
type pair struct{ state, obs int }

// oraclePairs computes the reachable product pairs on the materialized
// LTS by a plain BFS — a different algorithm from the checker's
// incremental stream propagation, over a different representation.
func oraclePairs(l *check.LTS, obs *check.Observer) map[pair]bool {
	preds := make([]uint64, l.NumStates())
	for i := range preds {
		st := l.State(i)
		preds[i] = obs.PredBits(&st)
	}
	q0 := obs.Step(obs.Init, obs.InitBits, preds[0])
	seen := map[pair]bool{{0, q0}: true}
	queue := []pair{{0, q0}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, e := range l.Edges(p.state) {
			q2 := obs.Step(p.obs, obs.EvBits(e.Label), preds[e.To])
			np := pair{e.To, q2}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, np)
			}
		}
	}
	return seen
}

// oracleHasBad reports whether any reachable product pair is bad.
func oracleHasBad(pairs map[pair]bool, obs *check.Observer) bool {
	for p := range pairs {
		if obs.Bad&(1<<uint(p.obs)) != 0 {
			return true
		}
	}
	return false
}

// walkProduct replays a label sequence nondeterministically on the
// materialized LTS × observer product and returns the set of pairs the
// run can end in — the oracle for counterexample paths.
func walkProduct(l *check.LTS, obs *check.Observer, path []string) map[pair]bool {
	preds := make([]uint64, l.NumStates())
	for i := range preds {
		st := l.State(i)
		preds[i] = obs.PredBits(&st)
	}
	cur := map[pair]bool{{0, obs.Step(obs.Init, obs.InitBits, preds[0])}: true}
	for _, label := range path {
		next := make(map[pair]bool)
		for p := range cur {
			for _, e := range l.Edges(p.state) {
				if e.Label != label {
					continue
				}
				next[pair{e.To, obs.Step(p.obs, obs.EvBits(label), preds[e.To])}] = true
			}
		}
		cur = next
	}
	return cur
}

// TestTemporalCheckersMatchOracle is the zoo differential for the
// automaton-compiled temporal properties: at workers 1 and 4, the
// streaming verdict must be bit-identical across worker counts, the
// violation bit must agree with a product-BFS oracle on the
// materialized LTS, and a reported counterexample path must be a run of
// the system that really drives the observer into a bad state at the
// reported violating state. Memoryless properties (explicit always-
// and reach-shaped automata) are additionally pinned state-and-path
// against the materialized CheckInvariant/FindState analyses.
func TestTemporalCheckersMatchOracle(t *testing.T) {
	type tc struct {
		name string
		sys  *bip.System
		p    prop.Prop
		// wantViolated is the semantic expectation, double-checking the
		// oracle itself.
		wantViolated bool
		// pinInvariant / pinReach pin the verdict against the
		// corresponding materialized analysis (memoryless observers).
		pinInvariant func(bip.State) bool
		pinReach     func(bip.State) bool
	}
	var cases []tc

	phil, err := models.Philosophers(3)
	if err != nil {
		t.Fatal(err)
	}
	philCtl, err := models.ControlOnly(phil)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		tc{
			name: "phil/mutex-automaton", sys: philCtl,
			p: prop.Automaton{
				Name: "mutex", Init: "ok", Bad: []string{"bad"},
				Trans: []prop.ATrans{{From: "ok", To: "bad",
					When: prop.And(prop.At("phil0", "eating"), prop.At("phil1", "eating"))}},
			},
			wantViolated: false,
		},
		tc{
			name: "phil/fork-held-between", sys: philCtl,
			p:            prop.Between(prop.On("eat0"), prop.On("put0"), prop.At("fork0", "busyL")),
			wantViolated: false,
		},
		tc{
			name: "phil/fork-held-after-until", sys: philCtl,
			p: prop.After(prop.On("eat0"),
				prop.Until(prop.At("fork0", "busyL"), prop.On("put0"))),
			wantViolated: false,
		},
		tc{
			name: "phil/fork1-free-between-violated", sys: philCtl,
			p:            prop.Between(prop.On("eat0"), prop.On("put0"), prop.At("fork1", "free")),
			wantViolated: true,
		},
	)

	phil2p, err := models.PhilosophersDeadlocking(3)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{
		name: "phil2p/fork-held-after", sys: phil2p,
		p: prop.After(prop.On("getL0"),
			prop.Until(prop.At("fork0", "busyL"), prop.On("put0"))),
		wantViolated: false,
	})

	unsafe, err := models.UnsafeElevator(4)
	if err != nil {
		t.Fatal(err)
	}
	movingOpen := models.MovingWithDoorOpen(unsafe)
	cases = append(cases,
		tc{
			name: "elevator/requirement-automaton", sys: unsafe,
			p: prop.Automaton{
				Name: "door", Init: "ok", Bad: []string{"bad"},
				Trans: []prop.ATrans{{From: "ok", To: "bad",
					When: prop.And(prop.At("cabin", "moving"), prop.At("door", "open"))}},
			},
			wantViolated: true,
			pinInvariant: func(st bip.State) bool { return !movingOpen(st) },
		},
		tc{
			name: "elevator/door-safety-after", sys: unsafe,
			p: prop.After(prop.On("cabin.depart"),
				prop.Until(prop.At("door", "closed"), prop.On("cabin.arrive"))),
			wantViolated: true,
		},
	)

	gcd, err := models.GCD(36, 60)
	if err != nil {
		t.Fatal(err)
	}
	gcdIdx := gcd.AtomIndex("gcd")
	atFixpoint := func(st bip.State) bool {
		return intVar(st, gcdIdx, "x") == 12 && intVar(st, gcdIdx, "y") == 12
	}
	cases = append(cases,
		tc{
			name: "gcd/x-positive-until-halt", sys: gcd,
			p:            prop.Until(prop.Gt(prop.Var("gcd", "x"), prop.Int(0)), prop.On("gcd.halt")),
			wantViolated: false,
		},
		tc{
			name: "gcd/fixpoint-reach-automaton", sys: gcd,
			p: prop.Automaton{
				Name: "fixpoint", Init: "look", Bad: []string{"hit"},
				Trans: []prop.ATrans{{From: "look", To: "hit",
					When: prop.And(
						prop.Eq(prop.Var("gcd", "x"), prop.Int(12)),
						prop.Eq(prop.Var("gcd", "y"), prop.Int(12)))}},
			},
			wantViolated: true,
			pinReach:     atFixpoint,
		},
	)

	for _, c := range cases {
		l, err := check.Explore(c.sys, check.Options{})
		if err != nil {
			t.Fatalf("%s: explore: %v", c.name, err)
		}
		if l.Truncated() {
			t.Fatalf("%s: zoo case unexpectedly truncated", c.name)
		}

		// Reference run (sequential), then worker-count pinning.
		ref := compileOn(t, c.sys, c.p)
		refChk, ok := ref.Sink.(*check.AutomatonCheck)
		if !ok {
			t.Fatalf("%s: expected an automaton sink, got %T", c.name, ref.Sink)
		}
		if _, err := check.Stream(c.sys, check.Options{}, ref.Sink); err != nil {
			t.Fatalf("%s: stream: %v", c.name, err)
		}
		v := ref.Verdict
		for _, w := range []int{4} {
			cp := compileOn(t, c.sys, c.p)
			if _, err := check.Stream(c.sys, check.Options{Workers: w}, cp.Sink); err != nil {
				t.Fatalf("%s/workers=%d: %v", c.name, w, err)
			}
			if cp.Verdict.Found != v.Found || cp.Verdict.State != v.State ||
				!samePath(cp.Verdict.Path, v.Path) || cp.Verdict.Exhaustive != v.Exhaustive {
				t.Fatalf("%s/workers=%d: verdict (%v,%d,%v,%v) != sequential (%v,%d,%v,%v)",
					c.name, w, cp.Verdict.Found, cp.Verdict.State, cp.Verdict.Path, cp.Verdict.Exhaustive,
					v.Found, v.State, v.Path, v.Exhaustive)
			}
		}

		// Oracle 1: the violation bit equals product-BFS reachability of
		// a bad pair on the materialized LTS.
		obs := refChk.Obs
		pairs := oraclePairs(l, obs)
		if got, want := v.Found, oracleHasBad(pairs, obs); got != want {
			t.Fatalf("%s: streaming found=%v, product oracle says %v", c.name, got, want)
		}
		if v.Found != c.wantViolated {
			t.Fatalf("%s: found=%v, semantic expectation %v", c.name, v.Found, c.wantViolated)
		}

		if !v.Found {
			if !v.Exhaustive {
				t.Fatalf("%s: no violation but coverage not exhaustive", c.name)
			}
			continue
		}

		// Oracle 2: the counterexample is a real run ending at the
		// reported state with a bad observer state.
		if v.State < 0 || v.State >= l.NumStates() {
			t.Fatalf("%s: violating state %d out of range", c.name, v.State)
		}
		end := walkProduct(l, obs, v.Path)
		okEnd := false
		for p := range end {
			if p.state == v.State && obs.Bad&(1<<uint(p.obs)) != 0 {
				okEnd = true
				break
			}
		}
		if !okEnd {
			t.Fatalf("%s: path %v does not drive the observer to a bad state at %d (ends %v)",
				c.name, v.Path, v.State, end)
		}

		// Oracle 3 (memoryless observers): exact state and path against
		// the materialized analyses.
		if c.pinInvariant != nil {
			okInv, state, path := l.CheckInvariant(c.pinInvariant)
			if okInv {
				t.Fatalf("%s: materialized invariant unexpectedly holds", c.name)
			}
			if v.State != state || !samePath(v.Path, path) {
				t.Fatalf("%s: verdict (%d,%v) != materialized invariant (%d,%v)",
					c.name, v.State, v.Path, state, path)
			}
		}
		if c.pinReach != nil {
			state, found := l.FindState(c.pinReach)
			if !found {
				t.Fatalf("%s: materialized reach misses the target", c.name)
			}
			if v.State != state || !samePath(v.Path, l.PathTo(state)) {
				t.Fatalf("%s: verdict (%d,%v) != materialized reach (%d,%v)",
					c.name, v.State, v.Path, state, l.PathTo(state))
			}
		}
	}
}

// TestSpecializedFormsMatchMaterialized pins the non-automaton
// specializations — Always/Never to the invariant checker, Reachable to
// the reach checker, DeadlockFree to the deadlock checker — against the
// materialized analyses, at workers 1 and 4, through bip.Verify.
func TestSpecializedFormsMatchMaterialized(t *testing.T) {
	phil2p, err := models.PhilosophersDeadlocking(3)
	if err != nil {
		t.Fatal(err)
	}
	l, err := check.Explore(phil2p, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dls := l.Deadlocks()
	if len(dls) == 0 {
		t.Fatal("two-phase philosophers must deadlock")
	}
	everyoneHasLeft := prop.And(
		prop.At("phil0", "hasLeft"), prop.At("phil1", "hasLeft"), prop.At("phil2", "hasLeft"))
	wantReach, _ := l.FindState(func(st bip.State) bool {
		return st.Locs[phil2p.AtomIndex("phil0")] == "hasLeft" &&
			st.Locs[phil2p.AtomIndex("phil1")] == "hasLeft" &&
			st.Locs[phil2p.AtomIndex("phil2")] == "hasLeft"
	})

	for _, w := range []int{1, 4} {
		rep, err := bip.Verify(phil2p,
			bip.Prop(prop.DeadlockFree()),
			bip.Prop(prop.Never(everyoneHasLeft)),
			bip.Prop(prop.Reachable(everyoneHasLeft)),
			bip.Workers(w))
		if err != nil {
			t.Fatal(err)
		}
		dl, _ := rep.Property("deadlock")
		if !dl.Violated || dl.State != dls[0] || !samePath(dl.Path, l.PathTo(dls[0])) {
			t.Fatalf("workers=%d: deadlock verdict (%v,%d,%v) != materialized (%d,%v)",
				w, dl.Violated, dl.State, dl.Path, dls[0], l.PathTo(dls[0]))
		}
		never, _ := rep.Property("never")
		reach, _ := rep.Property("reachable")
		if !never.Violated || !reach.Violated {
			t.Fatalf("workers=%d: circular wait must be reachable", w)
		}
		if never.State != wantReach || reach.State != wantReach {
			t.Fatalf("workers=%d: never/reach at %d/%d, materialized %d",
				w, never.State, reach.State, wantReach)
		}
		if !samePath(reach.Path, l.PathTo(wantReach)) {
			t.Fatalf("workers=%d: reach path %v != %v", w, reach.Path, l.PathTo(wantReach))
		}
	}
}

// TestTemporalTruncationInconclusive pins bound handling end to end: a
// holding temporal property on a truncated exploration is reported
// inconclusive, not ok.
func TestTemporalTruncationInconclusive(t *testing.T) {
	ring, err := models.TokenRing(4) // seen-counters make the space unbounded
	if err != nil {
		t.Fatal(err)
	}
	p := prop.After(prop.On("pass0"),
		prop.Until(prop.At("st1", "has"), prop.On("pass1")))
	rep, err := bip.Verify(ring, bip.Prop(p), bip.MaxStates(50))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatal("expected truncation at MaxStates=50")
	}
	after, ok := rep.Property("after")
	if !ok {
		t.Fatal("missing property entry")
	}
	if after.Violated || after.Conclusive || rep.OK {
		t.Fatalf("truncated temporal check must be inconclusive: %+v, ok=%v", after, rep.OK)
	}
}

// TestTemporalEarlyExit pins the early-exit contract: a violated
// temporal property settles after streaming a fraction of the space.
func TestTemporalEarlyExit(t *testing.T) {
	unsafe, err := models.UnsafeElevator(4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := check.Explore(unsafe, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp := compileOn(t, unsafe, prop.After(prop.On("cabin.depart"),
		prop.Until(prop.At("door", "closed"), prop.On("cabin.arrive"))))
	stats, err := check.Stream(unsafe, check.Options{}, cp.Sink)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Verdict.Found {
		t.Fatal("unsafe elevator must violate door safety")
	}
	if !stats.Stopped || stats.States >= l.NumStates() {
		t.Fatalf("expected early exit: streamed %d of %d states (stopped=%v)",
			stats.States, l.NumStates(), stats.Stopped)
	}
}

// TestBetweenCloseWinsOnSharedEvent pins the documented tie-break: when
// one interaction matches both the open and close events, close wins,
// so Between(x, x, false) never enters an episode.
func TestBetweenCloseWinsOnSharedEvent(t *testing.T) {
	sys, err := bip.Parse(`
system tick
atom T {
  port p
  location a
  from a to a on p
}
instance t : T
connector x = t.p
`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bip.Verify(sys, bip.Prop(prop.Between(prop.On("x"), prop.On("x"), prop.False())))
	if err != nil {
		t.Fatal(err)
	}
	between, _ := rep.Property("between")
	if between.Violated || !between.Conclusive {
		t.Fatalf("close must win the tie: %+v", between)
	}
}

// TestUntilViolatedAtInitialState pins the initial observation: the
// Until obligation applies to the initial state itself.
func TestUntilViolatedAtInitialState(t *testing.T) {
	sys, err := bip.Parse(`
system pair
atom Ping {
  port hit, back
  location a, b
  from a to b on hit
  from b to a on back
}
instance l : Ping
connector hit = l.hit
connector back = l.back
`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bip.Verify(sys, bip.Prop(prop.Until(prop.At("l", "b"), prop.On("hit"))))
	if err != nil {
		t.Fatal(err)
	}
	until, _ := rep.Property("until")
	if !until.Violated || until.State != 0 || len(until.Path) != 0 {
		t.Fatalf("want violation at the initial state with empty path, got %+v", until)
	}
}

// TestCompileErrors pins the compile-time validation surface: every
// name and kind mistake is reported before any exploration runs.
func TestCompileErrors(t *testing.T) {
	sys, err := models.GCD(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    prop.Prop
		want string
	}{
		{"unknown component", prop.Always(prop.At("nope", "loop")), "unknown component"},
		{"unknown location", prop.Always(prop.At("gcd", "nowhere")), "no location"},
		{"unknown variable", prop.Always(prop.Eq(prop.Var("gcd", "z"), prop.Int(0))), "no variable"},
		{"int var as predicate", prop.Always(prop.Var("gcd", "x")), "not bool"},
		{"unknown label", prop.Until(prop.True(), prop.On("nolabel")), "unknown interaction label"},
		{"empty on", prop.Until(prop.True(), prop.On()), "at least one"},
		{"nested reachable", prop.After(prop.On("gcd.halt"), prop.Reachable(prop.True())), "cannot be nested"},
		{"nested deadlockfree", prop.After(prop.On("gcd.halt"), prop.DeadlockFree()), "cannot be nested"},
		{"automaton without init", prop.Automaton{Trans: []prop.ATrans{{From: "a", To: "b"}}}, "Init"},
	}
	for _, c := range cases {
		_, err := prop.Compile(sys, c.p)
		if err == nil {
			t.Fatalf("%s: compile unexpectedly succeeded", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestPredCompilation exercises the term/predicate evaluators (arith,
// comparisons, connectives, bool variables) against hand-computed
// values on explored states.
func TestPredCompilation(t *testing.T) {
	sys, err := bip.Parse(`
system counters
atom C {
  var n: int = 0
  var flag: bool = false
  port step
  location run
  from run to run on step when n < 4 do n := n + 1; if n == 3 { flag := true }
}
instance c : C
connector step = c.step
`)
	if err != nil {
		t.Fatal(err)
	}
	l, err := check.Explore(sys, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ci := sys.AtomIndex("c")
	preds := []struct {
		p    prop.Pred
		want func(bip.State) bool
	}{
		{prop.Ge(prop.Add(prop.Var("c", "n"), prop.Int(1)), prop.Int(3)),
			func(st bip.State) bool { return intVar(st, ci, "n")+1 >= 3 }},
		{prop.Var("c", "flag"),
			func(st bip.State) bool { return boolVar(st, ci, "flag") }},
		{prop.And(prop.At("c", "run"), prop.Ne(prop.Mul(prop.Var("c", "n"), prop.Int(2)), prop.Int(4))),
			func(st bip.State) bool { return 2*intVar(st, ci, "n") != 4 }},
		{prop.Implies(prop.Var("c", "flag"), prop.Ge(prop.Var("c", "n"), prop.Int(3))),
			func(st bip.State) bool {
				return !boolVar(st, ci, "flag") || intVar(st, ci, "n") >= 3
			}},
		{prop.Lt(prop.Neg(prop.Var("c", "n")), prop.Sub(prop.Int(2), prop.Var("c", "n"))),
			func(st bip.State) bool { n := intVar(st, ci, "n"); return -n < 2-n }},
	}
	for _, c := range preds {
		f, err := prop.CompilePred(sys, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.p, err)
		}
		for i := 0; i < l.NumStates(); i++ {
			st := l.State(i)
			if got, want := f(st), c.want(st); got != want {
				t.Fatalf("%s at state %d: got %v, want %v", c.p, i, got, want)
			}
		}
	}
}

// TestNestedAfter pins combinator nesting: after a, after b, p — the
// inner obligation only arms once both events occurred in order.
func TestNestedAfter(t *testing.T) {
	sys, err := bip.Parse(`
system seq
atom S {
  port pa, pb, pc
  location l0, l1, l2, l3
  from l0 to l1 on pa
  from l1 to l2 on pb
  from l2 to l3 on pc
}
instance s : S
connector a = s.pa
connector b = s.pb
connector c = s.pc
`)
	if err != nil {
		t.Fatal(err)
	}
	// After a, after b, never at(l3): violated only by the full run.
	p := prop.After(prop.On("a"), prop.After(prop.On("b"), prop.Never(prop.At("s", "l3"))))
	rep, err := bip.Verify(sys, bip.Prop(p))
	if err != nil {
		t.Fatal(err)
	}
	after, _ := rep.Property("after")
	if !after.Violated || !samePath(after.Path, []string{"a", "b", "c"}) {
		t.Fatalf("want violation via [a b c], got %+v", after)
	}
	// Without the b, the inner never stays dormant.
	p2 := prop.After(prop.On("b"), prop.After(prop.On("a"), prop.Never(prop.At("s", "l3"))))
	rep2, err := bip.Verify(sys, bip.Prop(p2))
	if err != nil {
		t.Fatal(err)
	}
	after2, _ := rep2.Property("after")
	if after2.Violated {
		t.Fatalf("b never precedes a; property must hold, got %+v", after2)
	}
}

// intVar and boolVar read component ai's variable name at st.
func intVar(st bip.State, ai int, name string) int64 {
	v, _ := st.Vars[ai].Get(name)
	n, _ := v.Int()
	return n
}

func boolVar(st bip.State, ai int, name string) bool {
	v, _ := st.Vars[ai].Get(name)
	b, _ := v.Bool()
	return b
}
