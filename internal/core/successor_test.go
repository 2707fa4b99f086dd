package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"bip/internal/behavior"
	"bip/internal/core"
	"bip/internal/expr"
	"bip/models"
)

// xferSystem has a guarded data transfer (xfer copies src.v into dst.w
// when src.v >= dst.w), a conditional priority (src.bump yields to xfer
// while src.v > 0) and an action that fails: dst.tick divides by dst.w,
// which xfer sets to 0 from the initial state.
func xferSystem(t *testing.T) *core.System {
	t.Helper()
	src := behavior.NewBuilder("src").
		Location("s").
		Int("v", 0).
		Port("out", "v").
		Port("bump").
		Transition("s", "out", "s").
		TransitionG("s", "bump", "s", nil, expr.Set("v", expr.Mod(expr.Add(expr.V("v"), expr.I(1)), expr.I(3)))).
		MustBuild()
	dst := behavior.NewBuilder("dst").
		Location("idle", "full").
		Int("w", 0).
		Int("q", 0).
		Port("in", "w").
		Port("tick").
		Transition("idle", "in", "full").
		TransitionG("full", "tick", "idle", nil, expr.Set("q", expr.Div(expr.I(6), expr.V("w")))).
		MustBuild()
	sys, err := core.NewSystem("xfer").
		Add(src).Add(dst).
		ConnectGD("xfer", expr.Ge(expr.V("src.v"), expr.V("dst.w")),
			expr.Set("dst.w", expr.V("src.v")),
			core.P("src", "out"), core.P("dst", "in")).
		Singleton("src", "bump").
		Singleton("dst", "tick").
		PriorityWhen("src.bump", "xfer", expr.Gt(expr.V("src.v"), expr.I(0))).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestScratchSuccessorsMatchExec is the differential of the
// participant-only successor path against the reference semantics:
// after Load of a reachable state, every Step — several per parent, in
// random order and with repeats — must produce System.Exec's successor,
// and Key the successor's AppendBinaryKey, whatever the previous Step
// left in the scratch buffers; a Step whose action fails must fail
// like Exec and leave the next Step right. The parent must come out
// untouched.
func TestScratchSuccessorsMatchExec(t *testing.T) {
	grid, err := models.CounterGrid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rings, err := models.PhilosopherRings(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := models.ControlOnly(rings)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*core.System{grid, ctl, xferSystem(t)} {
		rng := rand.New(rand.NewSource(1))
		x := sys.NewScratchExec()
		slab := &core.Slab{}
		var steps, failed int
		frontier := []core.State{sys.Initial()}
		seen := map[string]bool{string(sys.AppendBinaryKey(nil, sys.Initial())): true}
		for len(frontier) > 0 && len(seen) < 400 {
			st := frontier[0]
			frontier = frontier[1:]
			parentKey := sys.AppendBinaryKey(nil, st)
			moves, err := sys.EnabledRaw(st)
			if err != nil {
				t.Fatal(err)
			}
			x.Load(st)
			for i := 0; i < 3*len(moves); i++ {
				m := moves[rng.Intn(len(moves))]
				steps++
				want, wantErr := sys.Exec(st, m)
				got, err := x.Step(m)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s: %s from %s: Step error %v, Exec error %v", sys.Name, sys.Label(m), st.Key(), err, wantErr)
				}
				if err != nil {
					failed++
					continue
				}
				if !got.Equal(want) {
					t.Fatalf("%s: %s from %s: Step gives %s, Exec %s", sys.Name, sys.Label(m), st.Key(), got.Key(), want.Key())
				}
				if key, wantKey := x.Key(), sys.AppendBinaryKey(nil, want); !bytes.Equal(key, wantKey) {
					t.Fatalf("%s: %s from %s: patched key %x, want %x", sys.Name, sys.Label(m), st.Key(), key, wantKey)
				}
				if mat := x.MaterializeSlab(slab); !mat.Equal(want) {
					t.Fatalf("%s: %s from %s: materialized %s, want %s", sys.Name, sys.Label(m), st.Key(), mat.Key(), want.Key())
				}
				if k := string(sys.AppendBinaryKey(nil, want)); !seen[k] {
					seen[k] = true
					frontier = append(frontier, want)
				}
			}
			if !bytes.Equal(sys.AppendBinaryKey(nil, st), parentKey) {
				t.Fatalf("%s: stepping mutated the parent %s", sys.Name, st.Key())
			}
		}
		if sys.Name == "xfer" && failed == 0 {
			t.Fatalf("%s: no Step failed in %d steps, so recovery after a failure went untested", sys.Name, steps)
		}
		t.Logf("%s: %d states, %d steps, %d failed", sys.Name, len(seen), steps, failed)
	}
}
