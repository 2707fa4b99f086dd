package behavior

import (
	"testing"

	"bip/internal/expr"
)

// These tests pin the fast paths added for the incremental engines:
// EnabledView's shared slices, the compiled-action Exec, ExecInPlace's
// in-place mutation contract, and the append-based state key.

func counterAtom(t *testing.T) *Atom {
	t.Helper()
	a, err := NewBuilder("cnt").
		Location("lo", "hi").
		Int("n", 0).
		Port("up", "n").Port("down", "n").
		TransitionG("lo", "up", "hi", expr.Lt(expr.V("n"), expr.I(3)),
						expr.Set("n", expr.Add(expr.V("n"), expr.I(1)))).
		Transition("lo", "up", "lo"). // nondeterministic alternative
		TransitionG("hi", "down", "lo", nil,
			expr.Set("n", expr.Sub(expr.V("n"), expr.I(1)))).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// counterAt returns a state of a at loc with n set.
func counterAt(a *Atom, loc string, n int64) State {
	st := a.InitialState()
	st.Loc = loc
	_ = st.Vars.Set("n", expr.IntVal(n))
	return st
}

func TestEnabledViewMatchesEnabled(t *testing.T) {
	a := counterAtom(t)
	for _, st := range []State{
		a.InitialState(),
		counterAt(a, "lo", 5),
		counterAt(a, "hi", 1),
	} {
		for _, port := range []string{"up", "down"} {
			want, err1 := a.Enabled(st, port)
			got, err2 := a.EnabledView(st, port)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("err mismatch: %v vs %v", err1, err2)
			}
			if len(want) != len(got) {
				t.Fatalf("%s@%s: Enabled=%v EnabledView=%v", st.Loc, port, want, got)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s@%s: Enabled=%v EnabledView=%v", st.Loc, port, want, got)
				}
			}
		}
	}
}

func TestExecInPlaceMatchesExec(t *testing.T) {
	a := counterAtom(t)
	st := a.InitialState()
	for _, ti := range []int{0, 2} {
		if ti == 2 {
			st = State{Loc: "hi", Vars: st.Vars}
		}
		want, err := a.Exec(st.Clone(), ti)
		if err != nil {
			t.Fatal(err)
		}
		inPlace := st.Clone()
		loc, err := a.ExecInPlace(inPlace, ti)
		if err != nil {
			t.Fatal(err)
		}
		inPlace.Loc = loc
		if !want.Equal(inPlace) {
			t.Fatalf("transition %d: Exec %s/%v, ExecInPlace %s/%v", ti, want.Loc, want.Vars, inPlace.Loc, inPlace.Vars)
		}
		st = want
	}
}

func TestAppendBinaryKeyAgreesWithEqual(t *testing.T) {
	a := counterAtom(t)
	states := []State{
		a.InitialState(),
		counterAt(a, "lo", 1),
		counterAt(a, "hi", 1),
		counterAt(a, "hi", 2),
	}
	for i, s1 := range states {
		for j, s2 := range states {
			k1 := string(a.AppendBinaryKey(nil, s1))
			k2 := string(a.AppendBinaryKey(nil, s2))
			if (k1 == k2) != s1.Equal(s2) {
				t.Fatalf("states %d,%d: key equality %v, state equality %v", i, j, k1 == k2, s1.Equal(s2))
			}
		}
	}
}
