package core

import (
	"math/rand"
	"strings"
	"testing"

	"bip/internal/behavior"
	"bip/internal/expr"
)

// TestBinaryKeyCanonical pins the fixed-width binary state key: exactly
// BinaryKeyWidth bytes, and equal across two states iff the states are
// Equal — the property the exploration seen-set relies on.
func TestBinaryKeyCanonical(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := randSystem(t, rng)
		cur, prev := sys.Initial(), sys.Initial()
		for step := 0; step < 30; step++ {
			kc := sys.AppendBinaryKey(nil, cur)
			kp := sys.AppendBinaryKey(nil, prev)
			if len(kc) != sys.BinaryKeyWidth() {
				t.Fatalf("seed %d step %d: key width %d, want %d", seed, step, len(kc), sys.BinaryKeyWidth())
			}
			if (string(kc) == string(kp)) != cur.Equal(prev) {
				t.Fatalf("seed %d step %d: binary key disagrees with Equal", seed, step)
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

// TestBinaryKeyDistinguishesLocationsAndValues hand-checks the two
// components of the record: location index and variable encoding.
func TestBinaryKeyDistinguishesLocationsAndValues(t *testing.T) {
	a := behavior.NewBuilder("a").
		Location("s", "t").Int("x", 0).Bool("b", false).
		Port("p", "x").
		Transition("s", "p", "t").
		MustBuild()
	sys, err := NewSystem("bk").Add(a).Connect("i", P("a", "p")).Build()
	if err != nil {
		t.Fatal(err)
	}
	base := sys.Initial()
	at := func(loc string, x, b expr.Value) State {
		st := sys.Initial()
		st.Locs[0] = loc
		_ = st.Vars[0].Set("x", x)
		_ = st.Vars[0].Set("b", b)
		return st
	}
	variants := []State{
		at("t", expr.IntVal(0), expr.BoolVal(false)),
		at("s", expr.IntVal(1), expr.BoolVal(false)),
		at("s", expr.IntVal(0), expr.BoolVal(true)),
		// bool true vs int 1 must not collide either.
		at("s", expr.IntVal(0), expr.IntVal(1)),
	}
	bk := string(sys.AppendBinaryKey(nil, base))
	for i, v := range variants {
		if got := string(sys.AppendBinaryKey(nil, v)); got == bk {
			t.Fatalf("variant %d collides with the base state", i)
		}
	}
}

// interpretedEnabled is the reference for System.Enabled, computed with
// the expr interpreter throughout: local guards by name on each atom's
// store, interaction guards through QualEnv, and priorities through the
// interpreting Dominated. Moves come in the order Enabled lists them:
// by interaction, then with the first port's choice varying slowest.
func interpretedEnabled(sys *System, st State) ([]Move, error) {
	env := sys.QualEnv(&st)
	raw := make([][]Move, len(sys.Interactions))
	enabled := make([]bool, len(sys.Interactions))
	for ii, in := range sys.Interactions {
		choices := [][]int{nil}
		for _, pr := range in.Ports {
			ai := sys.AtomIndex(pr.Comp)
			var en []int
			for ti, tr := range sys.Atoms[ai].Transitions {
				if tr.From != st.Locs[ai] || tr.Port != pr.Port {
					continue
				}
				ok, err := expr.EvalBool(tr.Guard, st.Vars[ai])
				if err != nil {
					return nil, err
				}
				if ok {
					en = append(en, ti)
				}
			}
			var next [][]int
			for _, c := range choices {
				for _, ti := range en {
					next = append(next, append(append([]int(nil), c...), ti))
				}
			}
			choices = next
		}
		if len(choices) == 0 {
			continue
		}
		ok, err := expr.EvalBool(in.Guard, env)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for _, c := range choices {
			raw[ii] = append(raw[ii], Move{Interaction: ii, Choices: c})
		}
		enabled[ii] = true
	}
	var out []Move
	for ii, ms := range raw {
		if len(ms) == 0 {
			continue
		}
		dominated, err := sys.Dominated(ii, enabled, env)
		if err != nil {
			return nil, err
		}
		if !dominated {
			out = append(out, ms...)
		}
	}
	return out, nil
}

// interpretedExec is the reference for System.Exec: the interaction's
// data transfer runs through QualEnv on a deep copy of st, then each
// participant's chosen transition action runs by name on its store.
func interpretedExec(sys *System, st State, m Move) (State, error) {
	next := st.Clone()
	in := sys.Interactions[m.Interaction]
	if in.Action != nil {
		if err := in.Action.Exec(sys.QualEnv(&next)); err != nil {
			return State{}, err
		}
	}
	for pi, pr := range in.Ports {
		ai := sys.AtomIndex(pr.Comp)
		tr := sys.Atoms[ai].Transitions[m.Choices[pi]]
		if tr.Action != nil {
			if err := tr.Action.Exec(next.Vars[ai]); err != nil {
				return State{}, err
			}
		}
		next.Locs[ai] = tr.To
	}
	return next, nil
}

// TestInteractionCompiledAgreesWithInterpreter is the semantic oracle
// for slot compilation at the system level: on random systems (guarded
// interactions with data transfer, conditional priorities), the
// compiled semantics and the interpreted reference above must agree on
// every enabled-move set and every successor state along random runs.
func TestInteractionCompiledAgreesWithInterpreter(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := randSystem(t, rng)
		st := sys.Initial()
		for step := 0; step < 50; step++ {
			want, err := interpretedEnabled(sys, st)
			if err != nil {
				t.Fatalf("seed %d step %d: interpreted Enabled: %v", seed, step, err)
			}
			got, err := sys.Enabled(st)
			if err != nil {
				t.Fatalf("seed %d step %d: compiled Enabled: %v", seed, step, err)
			}
			if !movesEqual(want, got) {
				t.Fatalf("seed %d step %d: move sets differ\n interp:   %s\n compiled: %s",
					seed, step, fmtMoves(sys, want), fmtMoves(sys, got))
			}
			if len(want) == 0 {
				break
			}
			m := want[rng.Intn(len(want))]
			next, err := sys.Exec(st, m)
			if err != nil {
				t.Fatalf("seed %d step %d: compiled Exec: %v", seed, step, err)
			}
			rnext, err := interpretedExec(sys, st, m)
			if err != nil {
				t.Fatalf("seed %d step %d: interpreted Exec: %v", seed, step, err)
			}
			if !next.Equal(rnext) {
				t.Fatalf("seed %d step %d: successors diverge after %s", seed, step, sys.Label(m))
			}
			st = next
		}
	}
}

// TestValidateRejectsUncompilable pins that compilation is total on a
// validated system: an expression the slot compiler rejects (here a
// binary node with no operator, which names only declared variables and
// so passes the name checks) fails Validate at each of the three compile
// steps instead of leaving the code to an interpreter at run time.
func TestValidateRejectsUncompilable(t *testing.T) {
	bad := func(x string) expr.Expr { return expr.Binary{Op: expr.OpInvalid, X: expr.V(x), Y: expr.I(1)} }
	atom := func(guard, inv expr.Expr) *behavior.Builder {
		b := behavior.NewBuilder("a").Location("s").Int("x", 0).Port("p", "x").
			TransitionG("s", "p", "s", guard, nil)
		if inv != nil {
			b.Invariant(inv)
		}
		return b
	}
	build := func(a *behavior.Builder, iguard, when expr.Expr) error {
		at, err := a.Build()
		if err != nil {
			return err
		}
		b := NewSystem("u").Add(at).ConnectGD("i", iguard, nil, P("a", "p")).Connect("j", P("a", "p"))
		if when != nil {
			b.PriorityWhen("j", "i", when)
		}
		_, err = b.Build()
		return err
	}
	cases := []struct {
		name          string
		err           error
		wantSubstring string
	}{
		{"transition guard", build(atom(bad("x"), nil), nil, nil), "transition 0: guard"},
		{"invariant", build(atom(nil, bad("x")), nil, nil), "invariant 0"},
		{"interaction guard", build(atom(nil, nil), bad("a.x"), nil), `interaction "i" guard`},
		{"priority condition", build(atom(nil, nil), nil, bad("a.x")), "priority j < i"},
	}
	for _, c := range cases {
		if c.err == nil || !strings.Contains(c.err.Error(), c.wantSubstring) {
			t.Errorf("%s: Validate error %v, want one naming %q", c.name, c.err, c.wantSubstring)
		}
	}
}
