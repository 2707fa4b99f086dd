package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bip/internal/behavior"
	"bip/internal/expr"
)

// randSystem builds a random valid system: atoms with guarded, data-
// carrying, nondeterministic transitions; interactions with guards and
// data transfer over exported variables; conditional and unconditional
// priorities. It is the workload of the differential test.
func randSystem(t testing.TB, rng *rand.Rand) *System {
	t.Helper()
	nAtoms := 2 + rng.Intn(4)
	b := NewSystem(fmt.Sprintf("rand-%d", nAtoms))
	type portInfo struct{ comp, port, varName string }
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
			ports = append(ports, portInfo{comp: name, port: pname, varName: "x"})
			// A few transitions per port, some guarded, some
			// nondeterministic (same source and port, different targets).
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
		// Pick 1-3 ports on distinct components.
		perm := rng.Perm(len(ports))
		var refs []PortRef
		var quals []string
		seen := map[string]bool{}
		want := 1 + rng.Intn(3)
		for _, pi := range perm {
			p := ports[pi]
			if seen[p.comp] {
				continue
			}
			seen[p.comp] = true
			refs = append(refs, P(p.comp, p.port))
			quals = append(quals, p.comp+"."+p.varName)
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
	// Priorities over random distinct pairs, some conditional.
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

func movesEqual(a, b []Move) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Interaction != b[i].Interaction || len(a[i].Choices) != len(b[i].Choices) {
			return false
		}
		for j := range a[i].Choices {
			if a[i].Choices[j] != b[i].Choices[j] {
				return false
			}
		}
	}
	return true
}

func fmtMoves(sys *System, ms []Move) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprintf("%s%v", sys.Label(m), m.Choices)
	}
	return strings.Join(parts, " ")
}

// TestStepperDifferential is the semantic-equivalence oracle required by
// the incremental paths: on random systems, the from-scratch Enabled /
// EnabledRaw and the derived-table path that exploration and the
// single-threaded engine run (ScratchExec.Load/Step/MaterializeSlab,
// TableDeriver.DeriveSlab, TableDeriver.Enabled/Raw) must produce
// identical states and move sets after every step of random runs. The
// walk continues from the slab-materialized state, as they do.
func TestStepperDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := randSystem(t, rng)
		st := sys.Initial()
		vec, err := sys.EnabledVector(st)
		if err != nil {
			t.Fatalf("seed %d: EnabledVector: %v", seed, err)
		}
		deriver := sys.NewTableDeriver()
		scratch := sys.NewScratchExec()
		slab := &Slab{}
		for step := 0; step < 60; step++ {
			want, err := sys.Enabled(st)
			if err != nil {
				t.Fatalf("seed %d step %d: Enabled: %v", seed, step, err)
			}
			wantRaw, err := sys.EnabledRaw(st)
			if err != nil {
				t.Fatalf("seed %d step %d: EnabledRaw: %v", seed, step, err)
			}
			fromVec, err := deriver.Enabled(vec, st, nil)
			if err != nil {
				t.Fatalf("seed %d step %d: deriver Enabled: %v", seed, step, err)
			}
			if !movesEqual(want, fromVec) {
				t.Fatalf("seed %d step %d: vector move set differs\n scratch: %s\n vector:  %s",
					seed, step, fmtMoves(sys, want), fmtMoves(sys, fromVec))
			}
			if rawVec := deriver.Raw(vec, nil); !movesEqual(wantRaw, rawVec) {
				t.Fatalf("seed %d step %d: raw vector move set differs\n scratch: %s\n vector:  %s",
					seed, step, fmtMoves(sys, wantRaw), fmtMoves(sys, rawVec))
			}
			if len(want) == 0 {
				break // deadlock
			}
			m := want[rng.Intn(len(want))]
			next, err := sys.Exec(st, m)
			if err != nil {
				t.Fatalf("seed %d step %d: Exec: %v", seed, step, err)
			}
			scratch.Load(st)
			view, err := scratch.Step(m)
			if err != nil {
				t.Fatalf("seed %d step %d: scratch Step: %v", seed, step, err)
			}
			mat := scratch.MaterializeSlab(slab)
			if !view.Equal(next) || !mat.Equal(next) {
				t.Fatalf("seed %d step %d: scratch successor diverges from Exec", seed, step)
			}
			vec, err = deriver.DeriveSlab(vec, m, mat, slab)
			if err != nil {
				t.Fatalf("seed %d step %d: DeriveSlab: %v", seed, step, err)
			}
			st = mat
		}
	}
}

// TestStateKeyCanonical checks the textual state key (State.Key, which
// renders states in messages) agrees with state equality.
func TestStateKeyCanonical(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := randSystem(t, rng)
		cur, prev := sys.Initial(), sys.Initial()
		for step := 0; step < 30; step++ {
			if (cur.Key() == prev.Key()) != cur.Equal(prev) {
				t.Fatalf("seed %d step %d: State.Key disagrees with Equal", seed, step)
			}
			moves, err := sys.Enabled(cur)
			if err != nil || len(moves) == 0 {
				break
			}
			prev = cur
			if cur, err = sys.Exec(cur, moves[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStateKeySeparatorInjective pins the binary state key against
// location names that contain the textual key's separator bytes: they
// must not make distinct states collide (exploration would silently
// merge them).
func TestStateKeySeparatorInjective(t *testing.T) {
	mkAtom := func(name, l1, l2 string) *behavior.Atom {
		return behavior.NewBuilder(name).
			Location(l1, l2).Port("p").
			Transition(l1, "p", l2).
			MustBuild()
	}
	sys, err := NewSystem("sep").
		Add(mkAtom("a", "p#q", "p")).
		Add(mkAtom("b", "r", "q#r")).
		Connect("i0", P("a", "p")).
		Connect("i1", P("b", "p")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := sys.Initial(), sys.Initial()
	s1.Locs = []string{"p#q", "r"}
	s2.Locs = []string{"p", "q#r"}
	if k1, k2 := sys.AppendBinaryKey(nil, s1), sys.AppendBinaryKey(nil, s2); bytes.Equal(k1, k2) {
		t.Fatalf("distinct states collide: %x", k1)
	}
}

// TestClosePrioritiesBeforeValidate is the regression test for the
// nil-index bug: ClosePriorities on a hand-assembled, unvalidated system
// used to resolve every interaction name to index 0 and fabricate bogus
// edges. It must now validate first and produce the correct closure.
func TestClosePrioritiesBeforeValidate(t *testing.T) {
	mk := func() *System {
		a := behavior.NewBuilder("a").Location("s").
			Port("p").Port("q").Port("r").
			Transition("s", "p", "s").
			Transition("s", "q", "s").
			Transition("s", "r", "s").
			MustBuild()
		return &System{
			Name:  "unvalidated",
			Atoms: []*behavior.Atom{a},
			Interactions: []*Interaction{
				{Name: "low", Ports: []PortRef{P("a", "p")}},
				{Name: "mid", Ports: []PortRef{P("a", "q")}},
				{Name: "high", Ports: []PortRef{P("a", "r")}},
			},
			Priorities: []Priority{
				{Low: "low", High: "mid"},
				{Low: "mid", High: "high"},
			},
		}
	}
	sys := mk()
	if err := sys.ClosePriorities(); err != nil {
		t.Fatalf("ClosePriorities before Validate: %v", err)
	}
	found := false
	for _, p := range sys.Priorities {
		if p.Low == "low" && p.High == "high" && p.When == nil {
			found = true
		}
		if p.Low == p.High {
			t.Fatalf("fabricated reflexive edge %s", p)
		}
	}
	if !found {
		t.Fatalf("transitive edge low < high missing; priorities: %v", sys.Priorities)
	}

	// Unknown names must be reported, not silently resolved to index 0.
	bad := mk()
	if err := bad.Validate(); err != nil {
		t.Fatal(err)
	}
	bad.Priorities = append(bad.Priorities, Priority{Low: "nope", High: "high"})
	if err := bad.ClosePriorities(); err == nil || !strings.Contains(err.Error(), "unknown interaction") {
		t.Fatalf("ClosePriorities with unknown name = %v, want unknown-interaction error", err)
	}
}

// BenchmarkEnabledScratch and BenchmarkEnabledDerived quantify the
// incremental win on a chain of worker pairs: the from-scratch path
// rescans every interaction per step, the derived-table walk (the
// single-threaded engine's) recomputes only the two incident ones.
func benchSystem(b *testing.B, pairs int) *System {
	w := behavior.NewBuilder("w").Location("s").Int("x", 0).
		Port("step", "x").
		TransitionG("s", "step", "s", nil, expr.Set("x", expr.Add(expr.V("x"), expr.I(1)))).
		MustBuild()
	sb := NewSystem("bench")
	for i := 0; i < pairs; i++ {
		l, r := fmt.Sprintf("l%d", i), fmt.Sprintf("r%d", i)
		sb.AddAs(l, w).AddAs(r, w)
		sb.Connect(fmt.Sprintf("sync%d", i), P(l, "step"), P(r, "step"))
	}
	sys, err := sb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkEnabledScratch(b *testing.B) {
	sys := benchSystem(b, 64)
	st := sys.Initial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moves, err := sys.Enabled(st)
		if err != nil {
			b.Fatal(err)
		}
		st, err = sys.Exec(st, moves[i%len(moves)])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnabledDerived(b *testing.B) {
	sys := benchSystem(b, 64)
	ctx := sys.NewExploreCtx()
	st := sys.Initial()
	vec, err := sys.EnabledVector(st)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Moves, err = ctx.Deriver.Enabled(vec, st, ctx.Moves[:0])
		if err != nil {
			b.Fatal(err)
		}
		m := ctx.Moves[i%len(ctx.Moves)]
		ctx.Scratch.Load(st)
		if _, err := ctx.Scratch.Step(m); err != nil {
			b.Fatal(err)
		}
		st = ctx.Scratch.MaterializeSlab(ctx.Slab)
		if vec, err = ctx.Deriver.DeriveSlab(vec, m, st, ctx.Slab); err != nil {
			b.Fatal(err)
		}
	}
}
