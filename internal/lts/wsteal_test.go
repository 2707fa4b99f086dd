package lts

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"bip/internal/behavior"
	"bip/internal/core"
	"bip/internal/expr"
	"bip/models"
)

// The work-stealing driver promises a weaker — but precisely specified —
// contract than the deterministic one: the same state SET, edge set,
// truncation flag, admitted state count and checker verdicts, while
// numbering and event order are scheduling-dependent. These tests pin
// exactly that: LTSs are compared after canonical sorting (states
// ordered by their encoding, edges as sorted triples), verdict booleans
// are compared directly, and every reported counterexample path is
// replayed against the semantics to prove it is a real run.

// canonLTS is a numbering-independent fingerprint of an LTS.
type canonLTS struct {
	states    []string
	edges     []string
	deadlocks []string
	initial   string
	truncated bool
}

func canonicalize(l *LTS) canonLTS {
	sys := l.System()
	keys := make([]string, l.NumStates())
	for i := range keys {
		keys[i] = string(sys.AppendBinaryKey(nil, l.State(i)))
	}
	c := canonLTS{initial: keys[0], truncated: l.Truncated()}
	c.states = append(c.states, keys...)
	sort.Strings(c.states)
	for i := 0; i < l.NumStates(); i++ {
		for _, e := range l.Edges(i) {
			c.edges = append(c.edges, keys[i]+"|"+e.Label+"|"+keys[e.To])
		}
	}
	sort.Strings(c.edges)
	for _, d := range l.Deadlocks() {
		c.deadlocks = append(c.deadlocks, keys[d])
	}
	sort.Strings(c.deadlocks)
	return c
}

func requireSameCanonical(t *testing.T, name string, want, got *LTS) {
	t.Helper()
	a, b := canonicalize(want), canonicalize(got)
	if a.truncated != b.truncated {
		t.Fatalf("%s: truncated %v != %v", name, a.truncated, b.truncated)
	}
	if a.initial != b.initial {
		t.Fatalf("%s: initial states differ", name)
	}
	if len(a.states) != len(b.states) {
		t.Fatalf("%s: %d states != %d", name, len(a.states), len(b.states))
	}
	for i := range a.states {
		if a.states[i] != b.states[i] {
			t.Fatalf("%s: state sets differ at sorted index %d", name, i)
		}
	}
	if len(a.edges) != len(b.edges) {
		t.Fatalf("%s: %d edges != %d", name, len(a.edges), len(b.edges))
	}
	for i := range a.edges {
		if a.edges[i] != b.edges[i] {
			t.Fatalf("%s: edge multisets differ at sorted index %d: %q != %q",
				name, i, a.edges[i], b.edges[i])
		}
	}
	if len(a.deadlocks) != len(b.deadlocks) {
		t.Fatalf("%s: deadlock sets differ: %v vs %v", name, a.deadlocks, b.deadlocks)
	}
	for i := range a.deadlocks {
		if a.deadlocks[i] != b.deadlocks[i] {
			t.Fatalf("%s: deadlock sets differ at %d", name, i)
		}
	}
}

// validateRun replays a reported counterexample path against the
// semantics, tracking the full set of states reachable along the labels
// (interactions may be nondeterministic), and checks that some end
// state satisfies final. This is what makes an Unordered verdict
// trustworthy: whichever witness the schedule produced, it must be a
// real run.
func validateRun(t *testing.T, name string, sys *core.System, raw bool, path []string, final func(core.State) bool) {
	t.Helper()
	cur := map[string]core.State{string(sys.AppendBinaryKey(nil, sys.Initial())): sys.Initial()}
	for step, label := range path {
		next := map[string]core.State{}
		for _, st := range cur {
			moves, err := enabledOf(sys, st, raw)
			if err != nil {
				t.Fatalf("%s: step %d: %v", name, step, err)
			}
			for _, m := range moves {
				if sys.Label(m) != label {
					continue
				}
				succ, err := sys.Exec(st, m)
				if err != nil {
					t.Fatalf("%s: step %d: %v", name, step, err)
				}
				next[string(sys.AppendBinaryKey(nil, succ))] = succ
			}
		}
		if len(next) == 0 {
			t.Fatalf("%s: path %v infeasible at step %d (%q)", name, path, step, label)
		}
		cur = next
	}
	for _, st := range cur {
		if final(st) {
			return
		}
	}
	t.Fatalf("%s: no end state of path %v satisfies the verdict", name, path)
}

func enabledOf(sys *core.System, st core.State, raw bool) ([]core.Move, error) {
	if raw {
		return sys.EnabledRaw(st)
	}
	return sys.Enabled(st)
}

func wsWorkerCounts() []int {
	out := []int{2, 4, 8}
	if g := runtime.GOMAXPROCS(0); g > 1 && g != 2 && g != 4 && g != 8 {
		out = append(out, g)
	}
	return out
}

// zooCases is the shared model zoo of the unordered differentials.
func zooCases(t *testing.T) []struct {
	name string
	sys  *core.System
	opts Options
} {
	type tc = struct {
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
	tempRaw, err := models.Temperature(0, 2, 1)
	add("temperature-raw", tempRaw, err, Options{MaxStates: 10000, Raw: true})
	gcd, err := models.GCD(36, 60)
	add("gcd", gcd, err, Options{})
	gas, err := models.GasStation(2, 3)
	add("gasstation", gas, err, Options{})
	deep, err := models.DeepChain(200)
	add("deep-chain", deep, err, Options{})
	grid, err := models.CounterGrid(4, 4)
	add("counter-grid", grid, err, Options{})
	return cases
}

// TestWorkStealCanonicalMatchesSequential compares the canonically
// sorted materialized LTS of the work-stealing explorer against the
// sequential one across the model zoo and worker counts.
func TestWorkStealCanonicalMatchesSequential(t *testing.T) {
	for _, c := range zooCases(t) {
		seq := explore(t, c.sys, c.opts)
		for _, w := range wsWorkerCounts() {
			opts := c.opts
			opts.Workers = w
			opts.Order = Unordered
			ws := explore(t, c.sys, opts)
			name := fmt.Sprintf("%s/workers=%d", c.name, w)
			if seq.Truncated() {
				// Under truncation the admitted SET is schedule-dependent
				// by contract; the count and the flag are not.
				if ws.NumStates() != seq.NumStates() || !ws.Truncated() {
					t.Fatalf("%s: truncated run admitted %d states (truncated=%v), want %d",
						name, ws.NumStates(), ws.Truncated(), seq.NumStates())
				}
				continue
			}
			requireSameCanonical(t, name, seq, ws)
			if !Bisimilar(seq, ws, nil, nil) {
				t.Fatalf("%s: unordered LTS must be bisimilar to the sequential one", name)
			}
		}
	}
}

// TestWorkStealVerdictsMatchSequential runs every streaming checker on
// both drivers: verdict booleans must coincide, and each Unordered
// counterexample must replay as a real run ending in a state that
// witnesses the verdict.
func TestWorkStealVerdictsMatchSequential(t *testing.T) {
	for _, c := range zooCases(t) {
		l := explore(t, c.sys, c.opts)
		if l.Truncated() {
			// Verdicts over a truncated space depend on which states were
			// admitted; TestWorkStealTruncationAndEarlyExit covers the
			// bounded contract.
			continue
		}
		n := l.NumStates()
		midState, lastState := l.State(n/2), l.State(n-1)
		invPred := func(st core.State) bool { return !st.Equal(midState) }
		reachPred := func(st core.State) bool { return st.Equal(lastState) }
		wantDL := len(l.Deadlocks()) > 0
		wantInvOK, _, _ := l.CheckInvariant(invPred)

		for _, w := range wsWorkerCounts() {
			name := fmt.Sprintf("%s/workers=%d", c.name, w)
			opts := c.opts
			opts.Workers = w
			opts.Order = Unordered

			dl := &DeadlockCheck{}
			if _, err := Stream(c.sys, opts, dl); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if dl.Found != wantDL {
				t.Fatalf("%s: deadlock found=%v, sequential %v", name, dl.Found, wantDL)
			}
			if dl.Found {
				validateRun(t, name+"/deadlock", c.sys, c.opts.Raw, dl.Path, func(st core.State) bool {
					ms, err := enabledOf(c.sys, st, c.opts.Raw)
					return err == nil && len(ms) == 0
				})
			} else if !dl.Exhaustive {
				t.Fatalf("%s: full exploration must be conclusive", name)
			}

			inv := &InvariantCheck{Pred: invPred}
			if _, err := Stream(c.sys, opts, inv); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if inv.Found != !wantInvOK {
				t.Fatalf("%s: invariant found=%v, sequential verdict ok=%v", name, inv.Found, wantInvOK)
			}
			if inv.Found {
				validateRun(t, name+"/invariant", c.sys, c.opts.Raw, inv.Path, func(st core.State) bool {
					return !invPred(st)
				})
			}

			reach := &ReachCheck{Pred: reachPred}
			if _, err := Stream(c.sys, opts, reach); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reach.Found {
				t.Fatalf("%s: reachable state not found", name)
			}
			validateRun(t, name+"/reach", c.sys, c.opts.Raw, reach.Path, reachPred)
		}
	}
}

// TestWorkStealAutomatonVerdicts pins the unordered product-automaton
// mode: the hand-built sequencing observer of automaton_test must
// produce the same Found verdict at every worker count, with a product
// path that both exists and drives the observer to its bad state.
func TestWorkStealAutomatonVerdicts(t *testing.T) {
	sys := chainSystem(t)
	for _, w := range wsWorkerCounts() {
		chk := NewAutomatonCheck(seqObserver())
		stats, err := Stream(sys, Options{Workers: w, Order: Unordered}, chk)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !chk.Found || !stats.Stopped {
			t.Fatalf("workers=%d: want found+stopped, got found=%v stopped=%v", w, chk.Found, stats.Stopped)
		}
		// The product path must drive the observer into a bad state.
		obs := seqObserver()
		q := obs.Step(obs.Init, obs.InitBits, ^uint64(0))
		for _, label := range chk.Path {
			q = obs.Step(q, obs.EvBits(label), ^uint64(0))
		}
		if obs.Bad&(1<<uint(q)) == 0 {
			t.Fatalf("workers=%d: path %v does not reach the bad observer state", w, chk.Path)
		}
		validateRun(t, fmt.Sprintf("workers=%d/automaton", w), sys, false, chk.Path,
			func(core.State) bool { return true })
	}

	// And a clean system: no b-then-c run exists, so the observer must
	// stay quiet under full unordered coverage.
	safe, err := models.Philosophers(2)
	if err != nil {
		t.Fatal(err)
	}
	ctl := stripData(t, safe)
	for _, w := range []int{2, 8} {
		chk := NewAutomatonCheck(seqObserver())
		if _, err := Stream(ctl, Options{Workers: w, Order: Unordered}, chk); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if chk.Found || !chk.Exhaustive {
			t.Fatalf("workers=%d: want quiet conclusive observer, got found=%v exhaustive=%v",
				w, chk.Found, chk.Exhaustive)
		}
	}
}

// TestWorkStealRandomDifferential is the randomized oracle: generated
// systems with data, guards, priorities and bounded spaces must agree
// with the sequential exploration canonically; bounded runs that
// truncate must agree on the admitted count and the flag (the admitted
// SET is schedule-dependent under truncation, by contract).
func TestWorkStealRandomDifferential(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := randExploreSystem(t, rng)
		opts := Options{MaxStates: 4000}
		seq := explore(t, sys, opts)
		for _, w := range []int{2, 4, 8} {
			po := opts
			po.Workers = w
			po.Order = Unordered
			ws := explore(t, sys, po)
			name := fmt.Sprintf("seed=%d/workers=%d", seed, w)
			if seq.Truncated() {
				if ws.NumStates() != seq.NumStates() || !ws.Truncated() {
					t.Fatalf("%s: truncated run admitted %d states (truncated=%v), sequential %d",
						name, ws.NumStates(), ws.Truncated(), seq.NumStates())
				}
				continue
			}
			requireSameCanonical(t, name, seq, ws)
		}
	}
}

// TestWorkStealTruncationAndEarlyExit pins the bound and the stop
// protocol: the admitted count under truncation matches the sequential
// driver exactly at every worker count, and a sink's ErrStop ends the
// run with Stopped set and no further events.
func TestWorkStealTruncationAndEarlyExit(t *testing.T) {
	sys, err := models.ProducerConsumer(3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxStates: 1500}
	seq := explore(t, sys, opts)
	if !seq.Truncated() {
		t.Fatal("bounded producer/consumer must truncate")
	}
	for _, w := range wsWorkerCounts() {
		po := opts
		po.Workers = w
		po.Order = Unordered
		stats, err := Stream(sys, po, &DeadlockCheck{})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if stats.States != seq.NumStates() || !stats.Truncated {
			t.Fatalf("workers=%d: admitted %d states (truncated=%v), want %d (true)",
				w, stats.States, stats.Truncated, seq.NumStates())
		}
	}

	rings, err := models.PhilosopherRings(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := models.ControlOnly(rings)
	if err != nil {
		t.Fatal(err)
	}
	full := explore(t, ctl, Options{})
	for _, w := range []int{2, 8} {
		stop := &stopAfterSink{limit: 40}
		stats, err := Stream(ctl, Options{Workers: w, Order: Unordered}, stop)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !stats.Stopped {
			t.Fatalf("workers=%d: expected Stopped after sink ErrStop", w)
		}
		if stop.events != stop.atStop {
			t.Fatalf("workers=%d: %d events delivered after the stop", w, stop.events-stop.atStop)
		}
		if stats.States >= full.NumStates()/2 {
			t.Fatalf("workers=%d: early exit admitted %d of %d states", w, stats.States, full.NumStates())
		}
	}
}

// stopAfterSink counts every event and stops after `limit` states; any
// event after its ErrStop is a protocol violation.
type stopAfterSink struct {
	limit   int
	states  int
	events  int
	atStop  int
	stopped bool
}

func (s *stopAfterSink) OnState(int, core.State, Discovery) error {
	s.events++
	s.states++
	if s.states >= s.limit && !s.stopped {
		s.stopped = true
		s.atStop = s.events
		return ErrStop
	}
	return nil
}
func (s *stopAfterSink) OnEdge(int, int, string) error { s.events++; return nil }
func (s *stopAfterSink) OnExpanded(int, int) error     { s.events++; return nil }
func (s *stopAfterSink) Done(bool) error               { s.events++; return nil }

// TestWorkStealContended explores a space whose every interaction
// touches the same shared component, at 8 workers, so admission,
// stealing and sink flushing contend maximally. Run under -race in CI,
// this is the data-race regression test for the work-stealing driver.
func TestWorkStealContended(t *testing.T) {
	sys, err := models.ProducerConsumer(3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxStates: 3000}
	seq := explore(t, sys, opts)
	po := opts
	po.Workers = 8
	po.Order = Unordered
	ws := explore(t, sys, po)
	if ws.NumStates() != seq.NumStates() || !ws.Truncated() {
		t.Fatalf("contended: admitted %d states (truncated=%v), want %d",
			ws.NumStates(), ws.Truncated(), seq.NumStates())
	}
	if _, err := ws.DeadlockFree(); err == nil {
		t.Fatal("DeadlockFree on a truncated unordered LTS must refuse to answer")
	}
}

// randExploreSystem builds a random finite-state system: data-carrying
// nondeterministic atoms, guarded interactions with data transfer, and
// conditional priorities — the exploration analogue of core's
// randomized differential workload. All counters are bounded (mod 5),
// so the state space is finite.
func randExploreSystem(t *testing.T, rng *rand.Rand) *core.System {
	t.Helper()
	nAtoms := 2 + rng.Intn(3)
	b := core.NewSystem(fmt.Sprintf("randx-%d", nAtoms))
	type portInfo struct{ comp, port string }
	var ports []portInfo
	for ai := 0; ai < nAtoms; ai++ {
		name := fmt.Sprintf("c%d", ai)
		nLocs := 1 + rng.Intn(3)
		locs := make([]string, nLocs)
		for i := range locs {
			locs[i] = fmt.Sprintf("l%d", i)
		}
		ab := behavior.NewBuilder(name).Location(locs...).Int("x", int64(rng.Intn(3)))
		nPorts := 1 + rng.Intn(2)
		for pi := 0; pi < nPorts; pi++ {
			pname := fmt.Sprintf("p%d", pi)
			ab.Port(pname, "x")
			ports = append(ports, portInfo{comp: name, port: pname})
			nTrans := 1 + rng.Intn(3)
			for ti := 0; ti < nTrans; ti++ {
				from := locs[rng.Intn(nLocs)]
				to := locs[rng.Intn(nLocs)]
				var guard expr.Expr
				if rng.Intn(2) == 0 {
					guard = expr.Lt(expr.V("x"), expr.I(int64(1+rng.Intn(4))))
				}
				var action expr.Stmt
				if rng.Intn(2) == 0 {
					action = expr.Set("x", expr.Mod(expr.Add(expr.V("x"), expr.I(1)), expr.I(5)))
				}
				ab.TransitionG(from, pname, to, guard, action)
			}
		}
		atom, err := ab.Build()
		if err != nil {
			t.Fatalf("random atom: %v", err)
		}
		b.Add(atom)
	}
	nInter := 2 + rng.Intn(5)
	for ii := 0; ii < nInter; ii++ {
		perm := rng.Perm(len(ports))
		var refs []core.PortRef
		var quals []string
		seen := map[string]bool{}
		want := 1 + rng.Intn(3)
		for _, pi := range perm {
			p := ports[pi]
			if seen[p.comp] {
				continue
			}
			seen[p.comp] = true
			refs = append(refs, core.P(p.comp, p.port))
			quals = append(quals, p.comp+".x")
			if len(refs) == want {
				break
			}
		}
		var guard expr.Expr
		if rng.Intn(3) == 0 {
			guard = expr.Le(expr.V(quals[0]), expr.I(int64(1+rng.Intn(4))))
		}
		var action expr.Stmt
		if len(quals) > 1 && rng.Intn(3) == 0 {
			action = expr.Set(quals[0], expr.Mod(expr.Add(expr.V(quals[1]), expr.I(1)), expr.I(5)))
		}
		b.ConnectGD(fmt.Sprintf("i%d", ii), guard, action, refs...)
	}
	for k := 0; k < rng.Intn(4); k++ {
		lo, hi := rng.Intn(nInter), rng.Intn(nInter)
		if lo == hi {
			continue
		}
		if rng.Intn(2) == 0 {
			b.Priority(fmt.Sprintf("i%d", lo), fmt.Sprintf("i%d", hi))
		} else {
			b.PriorityWhen(fmt.Sprintf("i%d", lo), fmt.Sprintf("i%d", hi),
				expr.Gt(expr.V("c0.x"), expr.I(int64(rng.Intn(3)))))
		}
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatalf("random system: %v", err)
	}
	return sys
}
