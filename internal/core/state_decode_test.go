package core

import (
	"bytes"
	"testing"

	"bip/internal/behavior"
	"bip/internal/expr"
)

// TestStateFromBinaryKeyRoundTrip walks a data-carrying system
// breadth-first for a few levels and round-trips every visited state
// through its binary key: decode(encode(st)) must re-encode to the same
// bytes and render to the same textual state key. This is the contract
// the spilled frontier stands on — a state written to disk as its key
// alone must come back semantically identical.
func TestStateFromBinaryKeyRoundTrip(t *testing.T) {
	sys := decodeSystem(t)
	frontier := []State{sys.Initial()}
	seen := map[string]bool{}
	slab := &Slab{}
	checked := 0
	for level := 0; level < 6; level++ {
		var next []State
		for _, st := range frontier {
			key := sys.AppendBinaryKey(nil, st)
			if len(key) != sys.BinaryKeyWidth() {
				t.Fatalf("key has %d bytes, want %d", len(key), sys.BinaryKeyWidth())
			}
			back, err := sys.StateFromBinaryKey(key, slab)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if re := sys.AppendBinaryKey(nil, back); !bytes.Equal(re, key) {
				t.Fatalf("re-encode diverges: %x vs %x", re, key)
			}
			if got, want := back.Key(), st.Key(); got != want {
				t.Fatalf("decoded state renders %q, want %q", got, want)
			}
			checked++
			moves, err := sys.Enabled(st)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range moves {
				succ, err := sys.Exec(st, m)
				if err != nil {
					t.Fatal(err)
				}
				if k := string(sys.AppendBinaryKey(nil, succ)); !seen[k] {
					seen[k] = true
					next = append(next, succ)
				}
			}
		}
		frontier = next
	}
	if checked < 10 {
		t.Fatalf("round-tripped only %d states; the walk is broken", checked)
	}

	// Malformed inputs must error, not mis-decode.
	good := sys.AppendBinaryKey(nil, sys.Initial())
	if _, err := sys.StateFromBinaryKey(good[:len(good)-1], nil); err == nil {
		t.Fatal("truncated key decoded")
	}
	bad := append([]byte(nil), good...)
	bad[0], bad[1], bad[2], bad[3] = 0xff, 0xff, 0xff, 0xff // location index out of range
	if _, err := sys.StateFromBinaryKey(bad, nil); err == nil {
		t.Fatal("out-of-range location index decoded")
	}
	bad2 := append([]byte(nil), good...)
	bad2[4] = 99 // unknown value tag in c0's first variable slot
	if _, err := sys.StateFromBinaryKey(bad2, nil); err == nil {
		t.Fatal("unknown value tag decoded")
	}
	for _, c := range []struct {
		name string
		off  int
		b    byte
	}{
		// c0's record: location (4 bytes), x (tag + 8 payload bytes), flag.
		{"bool record with a nonzero payload", 4 + 9 + 1, 1},
		{"bool record in the int variable x", 4, 2},
		{"int record in the bool variable flag", 4 + 9, 1},
	} {
		bad := append([]byte(nil), good...)
		bad[c.off] = c.b
		if _, err := sys.StateFromBinaryKey(bad, nil); err == nil {
			t.Errorf("%s decoded", c.name)
		}
	}
}

// decodeSystem builds two data-carrying cells, each with an int and a
// bool variable and two locations.
func decodeSystem(tb testing.TB) *System {
	a := behavior.NewBuilder("cell").
		Location("s", "u").
		Int("x", 0).
		Bool("flag", false).
		Port("step").
		Port("flip").
		TransitionG("s", "step", "u", nil,
			expr.Set("x", expr.Add(expr.V("x"), expr.I(1)))).
		TransitionG("u", "flip", "s", nil,
			expr.Set("flag", expr.Not(expr.V("flag")))).
		MustBuild()
	b := NewSystem("roundtrip")
	b.AddAs("c0", a).AddAs("c1", a)
	b.Connect("step0", P("c0", "step"))
	b.Connect("flip0", P("c0", "flip"))
	b.Connect("step1", P("c1", "step"))
	b.Connect("flip1", P("c1", "flip"))
	sys, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// FuzzStateFromBinaryKey feeds arbitrary bytes to the spill file's
// decoder: it must return an error or a state that re-encodes to the
// same bytes, and never panic.
func FuzzStateFromBinaryKey(f *testing.F) {
	sys := decodeSystem(f)
	st := sys.Initial()
	f.Add(sys.AppendBinaryKey(nil, st))
	for i := 0; i < 4; i++ {
		moves, err := sys.Enabled(st)
		if err != nil || len(moves) == 0 {
			f.Fatalf("initial walk: %d moves, %v", len(moves), err)
		}
		if st, err = sys.Exec(st, moves[0]); err != nil {
			f.Fatal(err)
		}
		f.Add(sys.AppendBinaryKey(nil, st))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, key []byte) {
		back, err := sys.StateFromBinaryKey(key, &Slab{})
		if err != nil {
			return
		}
		if re := sys.AppendBinaryKey(nil, back); !bytes.Equal(re, key) {
			t.Fatalf("decoded %x re-encodes to %x", key, re)
		}
	})
}

// TestValidateRejectsKindChanges pins what DecodeBinaryKey's kind check
// stands on: no reachable state holds a value of another kind than its
// variable's declaration, because validation rejects every transition
// action and data transfer that could assign one. Assignments that
// keep the kind, a conditional among them, still validate.
func TestValidateRejectsKindChanges(t *testing.T) {
	cell := func(action expr.Stmt) (*behavior.Atom, error) {
		return behavior.NewBuilder("cell").
			Location("s").
			Int("x", 0).
			Bool("flag", false).
			Port("p", "x", "flag").
			TransitionG("s", "p", "s", nil, action).
			Build()
	}
	for _, c := range []struct {
		name   string
		action expr.Stmt
		ok     bool
	}{
		{"bool into int", expr.Set("x", expr.B(true)), false},
		{"comparison into int", expr.Set("x", expr.Lt(expr.V("x"), expr.I(3))), false},
		{"int into bool", expr.Set("flag", expr.V("x")), false},
		{"mixed conditional", expr.Set("x", expr.If(expr.V("flag"), expr.I(1), expr.B(false))), false},
		{"nested in a sequence", expr.Do(expr.Set("x", expr.I(1)), expr.IfStmt{Cond: expr.V("flag"), Then: expr.Set("flag", expr.I(0))}), false},
		{"kind-preserving", expr.Do(expr.Set("x", expr.If(expr.V("flag"), expr.Neg(expr.V("x")), expr.I(2))), expr.Set("flag", expr.Not(expr.V("flag")))), true},
	} {
		if _, err := cell(c.action); (err == nil) != c.ok {
			t.Errorf("atom action %s: err = %v, want ok = %v", c.name, err, c.ok)
		}
	}
	a, err := cell(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		action expr.Stmt
		ok     bool
	}{
		{"bool into int", expr.Set("c0.x", expr.V("c1.flag")), false},
		{"int into int", expr.Set("c0.x", expr.Add(expr.V("c1.x"), expr.I(1))), true},
	} {
		b := NewSystem("transfer")
		b.AddAs("c0", a).AddAs("c1", a)
		b.ConnectGD("p", nil, c.action, P("c0", "p"), P("c1", "p"))
		if _, err := b.Build(); (err == nil) != c.ok {
			t.Errorf("data transfer %s: err = %v, want ok = %v", c.name, err, c.ok)
		}
	}
}
