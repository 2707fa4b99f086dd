package core

import (
	"math/rand"
	"testing"

	"bip/internal/behavior"
	"bip/internal/expr"
)

// TestDominatedAtAgreesWithInterpreter pins the slot-compiled priority
// conditions (compilePriorities + dominatedAt) against the interpreting
// reference (Dominated over a qualEnv) on random systems with
// conditional priorities, at every state of random walks.
func TestDominatedAtAgreesWithInterpreter(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := randSystem(t, rng)
		hasWhen := false
		for _, p := range sys.Priorities {
			if p.When != nil {
				hasWhen = true
			}
		}
		if !hasWhen && seed%3 != 0 {
			continue // still exercise a few unconditional systems
		}
		st := sys.Initial()
		frame := sys.newIFrame()
		enabled := make([]bool, len(sys.Interactions))
		for step := 0; step < 40; step++ {
			vec, err := sys.EnabledVector(st)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for ii := range vec {
				enabled[ii] = len(vec[ii]) > 0
			}
			env := sys.QualEnv(&st)
			for ii := range sys.Interactions {
				want, errW := sys.Dominated(ii, enabled, env)
				got, errG := sys.dominatedAt(ii, enabled, &st, frame)
				if (errW == nil) != (errG == nil) {
					t.Fatalf("seed %d step %d %s: error mismatch: interp=%v compiled=%v",
						seed, step, sys.Interactions[ii].Name, errW, errG)
				}
				if want != got {
					t.Fatalf("seed %d step %d %s: dominated: interp=%v compiled=%v",
						seed, step, sys.Interactions[ii].Name, want, got)
				}
			}
			moves, err := sys.Enabled(st)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if len(moves) == 0 {
				break
			}
			if st, err = sys.Exec(st, moves[rng.Intn(len(moves))]); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// TestInvariantCheckerAgreesWithInterpreter pins the slot-compiled atom
// invariants (behavior.Atom.BrokenInvariant via InvariantChecker)
// against direct interpretation of the invariant expressions, including
// the violation verdicts and their order.
func TestInvariantCheckerAgreesWithInterpreter(t *testing.T) {
	counter := behavior.NewBuilder("ctr").
		Location("s").
		Int("x", 0).Int("y", 7).
		Port("step", "x").
		TransitionG("s", "step", "s", nil,
			expr.Set("x", expr.Add(expr.V("x"), expr.I(1)))).
		Invariant(expr.Le(expr.V("x"), expr.I(3))).
		Invariant(expr.Eq(expr.V("y"), expr.I(7))).
		MustBuild()
	sys, err := NewSystem("inv").
		Add(counter).
		Singleton("ctr", "step").
		Build()
	if err != nil {
		t.Fatal(err)
	}

	interpret := func(st State) error {
		for i, a := range sys.Atoms {
			for _, inv := range a.Invariants {
				ok, err := expr.EvalBool(inv, st.Vars[i])
				if err != nil {
					return err
				}
				if !ok {
					return errViolated
				}
			}
		}
		return nil
	}

	chk := sys.NewInvariantChecker()
	st := sys.Initial()
	sawViolation := false
	for step := 0; step < 6; step++ {
		got := chk.Check(st)
		want := interpret(st)
		if (want == nil) != (got == nil) {
			x, _ := st.Vars[0].Get("x")
			t.Fatalf("step %d (x=%v): interp=%v compiled=%v", step, x, want, got)
		}
		if got != nil {
			sawViolation = true
		}
		moves, err := sys.Enabled(st)
		if err != nil || len(moves) == 0 {
			t.Fatalf("step %d: moves=%d err=%v", step, len(moves), err)
		}
		if st, err = sys.Exec(st, moves[0]); err != nil {
			t.Fatal(err)
		}
	}
	if !sawViolation {
		t.Fatal("walk never violated the invariant; the test lost its teeth")
	}
	// The violation message must name the first broken invariant, as the
	// interpreter did.
	bad := sys.Initial()
	_ = bad.Vars[0].Set("x", expr.IntVal(9))
	err = chk.Check(bad)
	if err == nil {
		t.Fatal("x=9 must violate x<=3")
	}
	if want := "x <= 3"; !containsStr(err.Error(), want) {
		t.Fatalf("violation error %q does not name invariant %q", err, want)
	}
}

var errViolated = errStr("invariant violated")

type errStr string

func (e errStr) Error() string { return string(e) }

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
