package core

import (
	"math/rand"
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
		sp := sys.NewStepper()
		prev := sys.Initial()
		for step := 0; step < 30; step++ {
			cur := sp.State()
			kc := sys.AppendBinaryKey(nil, cur)
			kp := sys.AppendBinaryKey(nil, prev)
			if len(kc) != sys.BinaryKeyWidth() {
				t.Fatalf("seed %d step %d: key width %d, want %d", seed, step, len(kc), sys.BinaryKeyWidth())
			}
			if (string(kc) == string(kp)) != cur.Equal(prev) {
				t.Fatalf("seed %d step %d: binary key disagrees with Equal", seed, step)
			}
			// The binary key must agree with the string key's verdict.
			if (string(kc) == string(kp)) != (sys.StateKey(cur) == sys.StateKey(prev)) {
				t.Fatalf("seed %d step %d: binary key disagrees with StateKey", seed, step)
			}
			moves, err := sp.Enabled()
			if err != nil || len(moves) == 0 {
				break
			}
			prev = cur.Clone()
			m := Move{Interaction: moves[0].Interaction, Choices: append([]int(nil), moves[0].Choices...)}
			if err := sp.Exec(m); err != nil {
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

// forceInterpreted strips the compiled interaction guard/action closures
// so that every evaluation goes through the qualEnv interpreter — the
// reference semantics of the differential test below.
func forceInterpreted(sys *System) {
	for i := range sys.icomp {
		sys.icomp[i].guard = nil
		sys.icomp[i].action = nil
	}
}

// TestInteractionCompiledAgreesWithInterpreter is the semantic oracle
// for interaction-level slot compilation: on random systems (guarded
// interactions with data transfer, conditional priorities), the
// compiled and interpreted paths must agree on every enabled-move set
// and every successor state along random runs.
func TestInteractionCompiledAgreesWithInterpreter(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := randSystem(t, rng)
		ref := randSystem(t, rand.New(rand.NewSource(seed))) // identical build
		forceInterpreted(ref)

		st, rst := sys.Initial(), ref.Initial()
		for step := 0; step < 50; step++ {
			want, err := ref.Enabled(rst)
			if err != nil {
				t.Fatalf("seed %d step %d: interpreted Enabled: %v", seed, step, err)
			}
			got, err := sys.Enabled(st)
			if err != nil {
				t.Fatalf("seed %d step %d: compiled Enabled: %v", seed, step, err)
			}
			if !movesEqual(want, got) {
				t.Fatalf("seed %d step %d: move sets differ\n interp:   %s\n compiled: %s",
					seed, step, fmtMoves(ref, want), fmtMoves(sys, got))
			}
			if len(want) == 0 {
				break
			}
			m := want[rng.Intn(len(want))]
			next, err := sys.Exec(st, m)
			if err != nil {
				t.Fatalf("seed %d step %d: compiled Exec: %v", seed, step, err)
			}
			rnext, err := ref.Exec(rst, m)
			if err != nil {
				t.Fatalf("seed %d step %d: interpreted Exec: %v", seed, step, err)
			}
			if !next.Equal(rnext) {
				t.Fatalf("seed %d step %d: successors diverge after %s", seed, step, sys.Label(m))
			}
			st, rst = next, rnext
		}
	}
}
