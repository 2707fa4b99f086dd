package lts

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"bip/internal/behavior"
	"bip/internal/core"
)

// chainSystem builds a single-atom system whose global states mirror
// the atom's locations, with one singleton interaction per port:
//
//	L0 --a--> L1 --b--> L0 (cycle),  L0 --c--> L2 (sink)
//
// The b edge is a back edge to the already-expanded L0, which is what
// the product propagation's worklist exists for.
func chainSystem(t *testing.T) *core.System {
	t.Helper()
	a := behavior.NewBuilder("m").
		Location("L0", "L1", "L2").
		Port("pa").Port("pb").Port("pc").
		Transition("L0", "pa", "L1").
		Transition("L1", "pb", "L0").
		Transition("L0", "pc", "L2").
		MustBuild()
	sys, err := core.NewSystem("chain").
		Add(a).
		Connect("a", core.P("m", "pa")).
		Connect("b", core.P("m", "pb")).
		Connect("c", core.P("m", "pc")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// seqObserver is a hand-built 3-state observer: q0 --b--> q1 --c--> bad.
// A violation requires the run to see b and then c — on chainSystem the
// only such run is [a b c], even though c's BFS-tree path is just [c].
func seqObserver() *Observer {
	return &Observer{
		NumStates: 3,
		Init:      0,
		Bad:       1 << 2,
		To:        []int32{1, 2},
		ByState:   [][]int32{{0}, {1}, nil},
		Preds:     make([]func(*core.State) bool, 2),
		LabelBits: map[string]uint64{"a": 0, "b": 1 << 0, "c": 1 << 1},
	}
}

// TestAutomatonBackEdgePropagation pins the worklist: the armed
// observer state reaches the expanded initial state through the b back
// edge and must be re-propagated through its (already emitted) edges to
// find the bad pair — and the reported path must be the product path
// [a b c], not the violating state's BFS-tree path [c].
func TestAutomatonBackEdgePropagation(t *testing.T) {
	sys := chainSystem(t)
	for _, w := range []int{1, 4} {
		chk := NewAutomatonCheck(seqObserver())
		stats, err := Stream(sys, Options{Workers: w}, chk)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !chk.Found {
			t.Fatalf("workers=%d: violation not found", w)
		}
		if !stats.Stopped {
			t.Fatalf("workers=%d: expected early stop", w)
		}
		// BFS numbering: L0=0, L1=1 (a), L2=2 (c).
		if chk.State != 2 {
			t.Fatalf("workers=%d: violating state %d, want 2", w, chk.State)
		}
		if !samePath(chk.Path, []string{"a", "b", "c"}) {
			t.Fatalf("workers=%d: path %v, want [a b c]", w, chk.Path)
		}
	}
}

// TestAutomatonHoldsExhaustive pins the conclusive-absence verdict: an
// observer that never fires leaves Found false and Exhaustive true on a
// fully covered space.
func TestAutomatonHoldsExhaustive(t *testing.T) {
	sys := chainSystem(t)
	obs := seqObserver()
	obs.LabelBits["b"] = 0 // never arm: the bad pair becomes unreachable
	chk := NewAutomatonCheck(obs)
	if _, err := Stream(sys, Options{}, chk); err != nil {
		t.Fatal(err)
	}
	if chk.Found {
		t.Fatalf("unexpected violation at %d via %v", chk.State, chk.Path)
	}
	if !chk.Exhaustive {
		t.Fatal("full coverage must make the absence conclusive")
	}
}

// TestAutomatonTruncationInconclusive pins the bound interaction: a
// truncated exploration leaves a non-violated automaton property
// inconclusive (Exhaustive false).
func TestAutomatonTruncationInconclusive(t *testing.T) {
	sys := chainSystem(t)
	obs := seqObserver()
	obs.LabelBits["c"] = 0 // the property holds; only coverage matters
	chk := NewAutomatonCheck(obs)
	stats, err := Stream(sys, Options{MaxStates: 2}, chk)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated {
		t.Fatal("expected truncation at MaxStates=2")
	}
	if chk.Found || chk.Exhaustive {
		t.Fatalf("truncated run must be inconclusive (found=%v exhaustive=%v)", chk.Found, chk.Exhaustive)
	}
}

// TestAutomatonInitialStateViolation pins the initial observation: a
// rule accepting the initial pseudo-event with a holding predicate
// settles at state 0 with an empty path.
func TestAutomatonInitialStateViolation(t *testing.T) {
	sys := chainSystem(t)
	atL0 := func(st *core.State) bool { return st.Locs[0] == "L0" }
	obs := &Observer{
		NumStates: 2,
		Init:      0,
		Bad:       1 << 1,
		To:        []int32{1},
		ByState:   [][]int32{{0}, nil},
		Preds:     []func(*core.State) bool{atL0},
		LabelBits: map[string]uint64{"a": 1, "b": 1, "c": 1},
		AnyBits:   1,
		InitBits:  1,
	}
	chk := NewAutomatonCheck(obs)
	if _, err := Stream(sys, Options{}, chk); err != nil {
		t.Fatal(err)
	}
	if !chk.Found || chk.State != 0 || len(chk.Path) != 0 {
		t.Fatalf("want violation at initial state with empty path, got found=%v state=%d path=%v",
			chk.Found, chk.State, chk.Path)
	}
}

// TestAutomatonSelfLoopPropagation covers observer progress on a
// self-loop edge: the state's own edge must see bits gained during its
// expansion (handled by draining at OnExpanded, when the edge list is
// complete).
func TestAutomatonSelfLoopPropagation(t *testing.T) {
	a := behavior.NewBuilder("m").
		Location("L0").
		Port("pa").
		Transition("L0", "pa", "L0").
		MustBuild()
	sys, err := core.NewSystem("loop").
		Add(a).
		Connect("a", core.P("m", "pa")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// q0 --a--> q1 --a--> bad: needs two a's, i.e. the self-loop edge
	// traversed with the q1 bit that the same edge produced.
	obs := &Observer{
		NumStates: 3,
		Init:      0,
		Bad:       1 << 2,
		To:        []int32{1, 2},
		ByState:   [][]int32{{0}, {1}, nil},
		Preds:     make([]func(*core.State) bool, 2),
		LabelBits: map[string]uint64{"a": 3},
	}
	chk := NewAutomatonCheck(obs)
	if _, err := Stream(sys, Options{}, chk); err != nil {
		t.Fatal(err)
	}
	if !chk.Found || chk.State != 0 {
		t.Fatalf("want violation at state 0, got found=%v state=%d", chk.Found, chk.State)
	}
	if !samePath(chk.Path, []string{"a", "a"}) {
		t.Fatalf("path %v, want [a a]", chk.Path)
	}
}

// TestAutomatonWorkerDeterminism runs an armed observer over a wider
// space (three interleaved chain copies) and pins bit-identical
// verdicts across worker counts.
func TestAutomatonWorkerDeterminism(t *testing.T) {
	b := core.NewSystem("chains")
	atom := behavior.NewBuilder("m").
		Location("L0", "L1", "L2").
		Port("pa").Port("pb").Port("pc").
		Transition("L0", "pa", "L1").
		Transition("L1", "pb", "L0").
		Transition("L0", "pc", "L2").
		MustBuild()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("m%d", i)
		b.AddAs(name, atom)
		b.Connect(fmt.Sprintf("a%d", i), core.P(name, "pa"))
		b.Connect(fmt.Sprintf("b%d", i), core.P(name, "pb"))
		b.Connect(fmt.Sprintf("c%d", i), core.P(name, "pc"))
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mkObs := func() *Observer {
		return &Observer{
			NumStates: 3,
			Init:      0,
			Bad:       1 << 2,
			To:        []int32{1, 2},
			ByState:   [][]int32{{0}, {1}, nil},
			Preds:     make([]func(*core.State) bool, 2),
			LabelBits: map[string]uint64{
				"a0": 0, "b0": 1 << 0, "c0": 1 << 1,
				"a1": 0, "b1": 0, "c1": 0,
				"a2": 0, "b2": 0, "c2": 0,
			},
		}
	}
	ref := NewAutomatonCheck(mkObs())
	if _, err := Stream(sys, Options{}, ref); err != nil {
		t.Fatal(err)
	}
	if !ref.Found {
		t.Fatal("reference run must find the violation")
	}
	for _, w := range []int{2, 4, 8} {
		chk := NewAutomatonCheck(mkObs())
		if _, err := Stream(sys, Options{Workers: w}, chk); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if chk.Found != ref.Found || chk.State != ref.State || !samePath(chk.Path, ref.Path) {
			t.Fatalf("workers=%d: verdict (%v,%d,%v) != sequential (%v,%d,%v)",
				w, chk.Found, chk.State, chk.Path, ref.Found, ref.State, ref.Path)
		}
	}
}

// TestAutomatonRelaxedOrders feeds one small graph's events to the
// checker by hand, in orders the relaxed Sink contract allows but a
// one-worker run never produces, and requires each to give the
// deterministic order's Found and Exhaustive, with a path that replays
// on the graph into the reported state and drives the observer bad.
//
// The graph (labels after the dash) reaches 4 with "b then c" only
// through 1 -b-> 3 -c-> 4:
//
//	0-a->1  0-a->2  1-b->3  2-a->3  2-c->4  3-c->4  3-a->0
//
// Events are tokens: sN is OnState(N), xN is OnExpanded(N) and eF-Tl is
// OnEdge(F, T, l).
func TestAutomatonRelaxedOrders(t *testing.T) {
	type edge struct {
		from, to int
		label    string
	}
	graph := []edge{{0, 1, "a"}, {0, 2, "a"}, {1, 3, "b"}, {2, 3, "a"}, {2, 4, "c"}, {3, 4, "c"}, {3, 0, "a"}}
	const n = 5
	moves := make([]int, n)
	for _, e := range graph {
		moves[e.from]++
	}
	// seq returns the observer q0 -first-> q1 -second-> bad.
	seq := func(first, second string) *Observer {
		return &Observer{
			NumStates: 3,
			Init:      0,
			Bad:       1 << 2,
			To:        []int32{1, 2},
			ByState:   [][]int32{{0}, {1}, nil},
			Preds:     make([]func(*core.State) bool, 2),
			LabelBits: map[string]uint64{"a": 0, first: 1 << 0, second: 1 << 1},
		}
	}
	orders := []struct {
		name  string
		perm  []int // perm[i] is the id graph state i is announced as; nil keeps the ids
		order string
	}{
		{"deterministic", nil,
			"s0 s1 e0-1a s2 e0-2a x0 s3 e1-3b x1 e2-3a s4 e2-4c x2 e3-4c e3-0a x3 x4"},
		// The deterministic order with graph states 1-4 announced as 3,
		// 1, 4, 2: ids arrive out of order.
		{"ids permuted", []int{0, 3, 1, 4, 2},
			"s0 s3 e0-3a s1 e0-1a x0 s4 e3-4b x3 e1-4a s2 e1-2c x1 e4-2c e4-0a x4 x2"},
		// 3's edges reach the sink inside 2's expansion, around 2's own.
		{"edges of a source split", nil,
			"s0 s1 e0-1a s2 e0-2a x0 s3 e1-3b x1 e2-3a s4 e3-4c e2-4c x2 e3-0a x3 x4"},
		// 1 -b-> 3 arrives after both 1 and 3 were expanded: 1's
		// propagated observer state must cross it into 3 and on to 4.
		{"late edge into an expanded target", nil,
			"s0 s1 e0-1a s2 e0-2a x0 x1 s3 e2-3a s4 e2-4c x2 e3-4c e3-0a x3 e1-3b x4"},
		// 3 has edges, but no OnExpanded yet, when 1 -b-> 3 fires.
		{"edge into a state with edges but unexpanded", nil,
			"s0 s1 e0-1a s2 e0-2a x0 s3 e2-3a s4 e3-4c e3-0a e2-4c x2 e1-3b x1 x3 x4"},
		// 3 is expanded before any of its edges arrive and gains the
		// armed observer state afterwards: its late edges must carry it.
		{"edgeless expanded state gains bits before its late edges", nil,
			"s0 s1 e0-1a s2 e0-2a x0 s3 e2-3a s4 e2-4c x2 x3 e1-3b x1 e3-4c e3-0a x4"},
	}
	for _, o := range orders {
		perm, inv := make([]int, n), make([]int, n)
		for i := range perm {
			perm[i] = i
			if o.perm != nil {
				perm[i] = o.perm[i]
			}
			inv[perm[i]] = i
		}
		// Check that the order is one the relaxed contract allows and
		// emits exactly the graph's events, then feed it.
		fed := func(chk *AutomatonCheck) {
			t.Helper()
			announced, expandedAt := map[int]bool{}, map[int]int{}
			var edges []edge
			for i, tok := range strings.Fields(o.order) {
				var err error
				var a, b int
				switch tok[0] {
				case 's':
					fmt.Sscanf(tok, "s%d", &a)
					if (i == 0) != (a == 0) || announced[a] {
						t.Fatalf("%s: %s out of contract", o.name, tok)
					}
					announced[a] = true
					err = chk.OnState(a, core.State{}, Discovery{})
				case 'x':
					fmt.Sscanf(tok, "x%d", &a)
					disc := a == 0
					for _, e := range edges {
						if x, ok := expandedAt[e.from]; ok && e.to == a && x < i {
							disc = true
						}
					}
					if !announced[a] || !disc {
						t.Fatalf("%s: %s before its OnState or before its discoverer's expansion", o.name, tok)
					}
					expandedAt[a] = i
					err = chk.OnExpanded(a, moves[inv[a]])
				default:
					var l string
					fmt.Sscanf(tok, "e%d-%d%s", &a, &b, &l)
					if !announced[a] || !announced[b] {
						t.Fatalf("%s: %s before an endpoint's OnState", o.name, tok)
					}
					edges = append(edges, edge{a, b, l})
					err = chk.OnEdge(a, b, l)
				}
				if err == ErrStop {
					return
				}
				if err != nil {
					t.Fatalf("%s: %s: %v", o.name, tok, err)
				}
			}
			if len(expandedAt) != n || len(edges) != len(graph) {
				t.Fatalf("%s: %d expansions and %d edges, want %d and %d", o.name, len(expandedAt), len(edges), n, len(graph))
			}
			for _, e := range graph {
				if !slices.Contains(edges, edge{perm[e.from], perm[e.to], e.label}) {
					t.Fatalf("%s: edge %+v missing", o.name, e)
				}
			}
			if err := chk.Done(false); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			obs   *Observer
			found bool
		}{{seq("b", "c"), true}, {seq("c", "b"), false}} {
			chk := NewAutomatonCheck(c.obs)
			fed(chk)
			if chk.Found != c.found || chk.Exhaustive == c.found {
				t.Fatalf("%s: found=%v exhaustive=%v, want found=%v", o.name, chk.Found, chk.Exhaustive, c.found)
			}
			if !chk.Found {
				continue
			}
			// Replay the path on the graph from state 0 with the
			// observer alongside; the reported state must be reachable
			// along it with the observer bad.
			at, q := map[int]bool{0: true}, c.obs.Init
			for _, l := range chk.Path {
				next := map[int]bool{}
				for _, e := range graph {
					if at[e.from] && e.label == l {
						next[e.to] = true
					}
				}
				at, q = next, c.obs.Step(q, c.obs.EvBits(l), ^uint64(0))
			}
			if !at[inv[chk.State]] || c.obs.Bad&(1<<uint(q)) == 0 {
				t.Fatalf("%s: path %v does not reach state %d with the observer bad", o.name, chk.Path, chk.State)
			}
		}
	}
}
