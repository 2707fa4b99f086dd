package lts

import (
	"bytes"
	"errors"
	"testing"

	"bip/internal/behavior"
	"bip/internal/core"
	"bip/internal/expr"
	"bip/models"
)

// These tests pin the slot-indexed variable stores on the exploration
// hot path: successor execution, key encoding and seen-set probes do
// not allocate; binary keys round-trip to stores laid out by the atoms'
// own layouts (so reloaded spill states stay on the compiled path); and
// the textual state keys that appear in error messages keep their
// format.

// transferSystem is a small model whose interaction moves data between
// components: xfer copies src.v into dst.w under a guard reading both,
// so the compiled interaction guard and data transfer run on every
// step, next to local actions on int and bool variables.
func transferSystem(t *testing.T) *core.System {
	t.Helper()
	src := behavior.NewBuilder("src").
		Location("a", "b").
		Int("v", 0).Bool("odd", false).
		Port("out", "v").
		TransitionG("a", "out", "b", nil,
			expr.Set("v", expr.Mod(expr.Add(expr.V("v"), expr.I(1)), expr.I(3)))).
		TransitionG("b", "out", "a", nil, expr.Set("odd", expr.Not(expr.V("odd")))).
		MustBuild()
	dst := behavior.NewBuilder("dst").
		Location("s").
		Int("w", 0).Int("n", 0).
		Port("in", "w").
		Port("tick").
		TransitionG("s", "in", "s", nil, nil).
		TransitionG("s", "tick", "s", expr.Lt(expr.V("n"), expr.I(2)),
			expr.Set("n", expr.Add(expr.V("n"), expr.I(1)))).
		MustBuild()
	sys, err := core.NewSystem("transfer").
		Add(src).Add(dst).
		ConnectGD("xfer", expr.Ge(expr.V("src.v"), expr.V("dst.w")),
			expr.Set("dst.w", expr.V("src.v")),
			core.P("src", "out"), core.P("dst", "in")).
		Singleton("dst", "tick").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestHotPathAllocFree pins that executing a move into the scratch
// state, patching the successor's binary key and finding it in a seen
// set that already holds it allocate nothing — the per-transition work
// every exploration driver does before it knows whether a successor is
// new.
func TestHotPathAllocFree(t *testing.T) {
	grid, err := models.CounterGrid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sys  *core.System
	}{{"counter-grid", grid}, {"transfer", transferSystem(t)}} {
		sys := c.sys
		l, err := Explore(sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		type probe struct {
			st    core.State
			moves []core.Move
		}
		var probes []probe
		for id := 0; id < l.NumStates(); id++ {
			st := l.State(id)
			moves, err := sys.Enabled(st)
			if err != nil {
				t.Fatal(err)
			}
			probes = append(probes, probe{st, moves})
		}
		for _, seenSets := range []SeenSets{ExactSeen{}, CompactSeen{}} {
			seen := seenSets.NewSeenSet(sys.BinaryKeyWidth())
			for id := 0; id < l.NumStates(); id++ {
				key := sys.AppendBinaryKey(nil, l.State(id))
				seen.Add(hashKey(key), key, int32(id))
			}
			x := sys.NewScratchExec()
			var runErr error
			allocs := testing.AllocsPerRun(20, func() {
				for _, p := range probes {
					x.Load(p.st)
					for _, m := range p.moves {
						if _, err := x.Step(m); err != nil {
							runErr = err
							return
						}
						key := x.Key()
						if _, ok := seen.Find(hashKey(key), key); !ok {
							runErr = errors.New("successor missing from the seen set")
							return
						}
					}
				}
			})
			if runErr != nil {
				t.Fatalf("%s/%T: %v", c.name, seenSets, runErr)
			}
			if allocs != 0 {
				t.Fatalf("%s/%T: %v allocations per sweep of %d states, want 0", c.name, seenSets, allocs, len(probes))
			}
		}
	}
}

// TestBinaryKeyRoundTripKeepsLayout decodes the binary key of every
// explored state of the zoo: the decoded state must equal the original
// and its stores must carry the atoms' own layouts — a store over any
// other layout would silently move a reloaded spill state from the
// compiled code to the interpreter.
func TestBinaryKeyRoundTripKeepsLayout(t *testing.T) {
	cases := zooCases(t)
	cases = append(cases, struct {
		name string
		sys  *core.System
		opts Options
	}{"transfer", transferSystem(t), Options{}})
	for _, c := range cases {
		l, err := Explore(c.sys, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for id := 0; id < l.NumStates(); id++ {
			st := l.State(id)
			key := c.sys.AppendBinaryKey(nil, st)
			back, err := c.sys.StateFromBinaryKey(key, nil)
			if err != nil {
				t.Fatalf("%s: state %d: %v", c.name, id, err)
			}
			if !back.Equal(st) || !bytes.Equal(c.sys.AppendBinaryKey(nil, back), key) {
				t.Fatalf("%s: state %d: round trip gives %s, want %s", c.name, id, back.Key(), st.Key())
			}
			for i, a := range c.sys.Atoms {
				if back.Vars[i].L != a.Layout() || st.Vars[i].L != a.Layout() {
					t.Fatalf("%s: state %d: store of %s is not laid out by the atom's own layout", c.name, id, a.Name)
				}
			}
		}
	}
}

// TestStateKeyTextUnchanged pins the textual state key (State.Key, the
// rendering invariant violations report) to its established format:
// components joined by '#', each "loc|name=value..." with variables in
// name order.
func TestStateKeyTextUnchanged(t *testing.T) {
	want := map[string]string{
		"philosophers-ctl":       "thinking#free#thinking#free#thinking#free",
		"philosophers-2p":        "thinking#free#thinking#free#thinking#free",
		"temperature-priorities": "run|theta=0#ready|rested=1#ready|rested=1",
		"temperature-raw":        "run|theta=0#ready|rested=1#ready|rested=1",
		"gcd":                    "loop|x=36|y=60",
		"gasstation":             "free#idle#idle#idle#free#free",
		"deep-chain":             "run|n=0#off#off",
		"counter-grid":           "s|c=0#s|c=0#s|c=0#s|c=0",
	}
	for _, c := range zooCases(t) {
		if got := c.sys.Initial().Key(); got != want[c.name] {
			t.Fatalf("%s: initial state key %q, want %q", c.name, got, want[c.name])
		}
	}
	l, err := Explore(transferSystem(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, w := range []string{
		"a|odd=false|v=0#s|n=0|w=0",
		"b|odd=false|v=1#s|n=0|w=0",
		"a|odd=false|v=0#s|n=1|w=0",
		"a|odd=true|v=1#s|n=0|w=1",
	} {
		if got := l.State(id).Key(); got != w {
			t.Fatalf("transfer: state %d key %q, want %q", id, got, w)
		}
	}
}
