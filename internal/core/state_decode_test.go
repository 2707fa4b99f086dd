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
		t.Fatal(err)
	}

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
}
