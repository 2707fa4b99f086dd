// Black-box tests of the visibility contract between the property
// algebra and ample-set reduction (bip.Reduce): a property that observes
// an interaction or reads an atom must never lose its counterexample to
// pruning, and property classes reduction cannot preserve must degrade
// the run to full expansion. Everything goes through the public surface.
package prop_test

import (
	"fmt"
	"strings"
	"testing"

	"bip"
	"bip/check"
	"bip/models"
	"bip/prop"
)

// replayStates replays a label sequence nondeterministically on the
// materialized full LTS and returns the set of states the run can end
// in; empty means the sequence is not a run of the system.
func replayStates(t *testing.T, l *check.LTS, path []string) map[int]bool {
	t.Helper()
	cur := map[int]bool{0: true}
	for _, label := range path {
		next := make(map[int]bool)
		for s := range cur {
			for _, e := range l.Edges(s) {
				if e.Label == label {
					next[e.To] = true
				}
			}
		}
		cur = next
	}
	return cur
}

// TestReductionVisibilityContract is the table over every prop operator:
// for each, bip.Verify with and without bip.Reduce() must report the
// same Violated/Conclusive verdict at workers 1, 4 and 8 in both stream
// orders, a reported counterexample must replay as a real run of the
// full system ending where the operator's confirm closure says it
// should, and Report.Reduced must record exactly whether reduction was
// able to engage (false for opaque predicates and step-counting events).
//
// The model is DiamondGrid(5): five independent two-step components
// c0..c4 with interactions a<i>, b<i> — maximal interleaving, so any
// unsound pruning of the observed component's moves would change a
// verdict immediately.
func TestReductionVisibilityContract(t *testing.T) {
	sys, err := models.DiamondGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	full, err := check.Explore(sys, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c3 := sys.AtomIndex("c3")
	atS2 := func(st bip.State) bool { return st.Locs[c3] == "s2" }

	cases := []struct {
		name string
		p    prop.Prop
		// wantViolated is the full-exploration verdict; reduction must
		// reproduce it exactly.
		wantViolated bool
		// wantReduced: does the property's visibility admit reduction?
		wantReduced bool
		// confirm checks a final state of the replayed counterexample
		// (nil: any valid run is enough).
		confirm func(bip.State) bool
	}{
		{"always", prop.Always(prop.Not(prop.At("c3", "s2"))), true, true, atS2},
		{"never", prop.Never(prop.At("c3", "s2")), true, true, atS2},
		{"reachable", prop.Reachable(prop.At("c3", "s2")), true, true, atS2},
		{"until-violated", prop.Until(prop.At("c0", "s0"), prop.On("a3")), true, true,
			func(st bip.State) bool { return st.Locs[sys.AtomIndex("c0")] != "s0" }},
		{"until-holds", prop.Until(prop.At("c3", "s0"), prop.On("a3")), false, true, nil},
		{"after", prop.After(prop.On("a3"), prop.Never(prop.At("c3", "s2"))), true, true, atS2},
		{"between", prop.Between(prop.On("a3"), prop.On("b3"), prop.At("c3", "s0")), true, true,
			func(st bip.State) bool { return st.Locs[c3] == "s1" }},
		{"deadlockfree", prop.DeadlockFree(), true, true,
			func(st bip.State) bool {
				id, ok := full.FindState(func(s bip.State) bool {
					for i := range s.Locs {
						if s.Locs[i] != st.Locs[i] {
							return false
						}
					}
					return true
				})
				return ok && len(full.Edges(id)) == 0
			}},
		// Opaque and step-counting forms: the verdict must still be the
		// full-exploration one, because the run degrades to full expansion.
		{"fn-degrades", prop.Reachable(prop.Fn(atS2)), true, false, atS2},
		{"anyevent-degrades", prop.Until(prop.At("c3", "s0"), prop.AnyEvent()), false, false, nil},
		{"noton-degrades", prop.After(prop.NotOn("a3"), prop.Never(prop.At("c3", "s2"))), true, false, atS2},
	}
	orders := []struct {
		name string
		opt  []bip.Option
	}{
		{"det", nil},
		{"fast", []bip.Option{bip.Unordered()}},
	}
	for _, tc := range cases {
		for _, ord := range orders {
			for _, w := range []int{1, 4, 8} {
				name := fmt.Sprintf("%s/%s/w%d", tc.name, ord.name, w)
				base := append([]bip.Option{bip.Prop(tc.p), bip.Workers(w)}, ord.opt...)
				fullRep, err := bip.Verify(sys, base...)
				if err != nil {
					t.Fatalf("%s: full verify: %v", name, err)
				}
				redRep, err := bip.Verify(sys, append(base, bip.Reduce())...)
				if err != nil {
					t.Fatalf("%s: reduced verify: %v", name, err)
				}
				if redRep.Reduced != tc.wantReduced {
					t.Fatalf("%s: Reduced=%v, want %v", name, redRep.Reduced, tc.wantReduced)
				}
				fp := fullRep.Properties[0]
				rp := redRep.Properties[0]
				if fp.Violated != tc.wantViolated {
					t.Fatalf("%s: full exploration Violated=%v, want %v (test premise broken)",
						name, fp.Violated, tc.wantViolated)
				}
				if rp.Violated != fp.Violated || rp.Conclusive != fp.Conclusive {
					t.Fatalf("%s: reduced verdict (violated=%v conclusive=%v) != full (violated=%v conclusive=%v)",
						name, rp.Violated, rp.Conclusive, fp.Violated, fp.Conclusive)
				}
				if !tc.wantReduced {
					// Degradation is total: no state was expanded with
					// an ample subset. The visited counts agree only
					// when both runs stream deterministically or cover
					// the whole space; an early-stopped Unordered run
					// with several workers visits a schedule-dependent
					// prefix.
					if redRep.AmpleStates != 0 || redRep.PrunedMoves != 0 {
						t.Fatalf("%s: degraded run pruned at %d states (%d moves) — degradation must be total",
							name, redRep.AmpleStates, redRep.PrunedMoves)
					}
					deterministic := w == 1 || ord.opt == nil
					exhaustive := !fp.Violated && !fullRep.Truncated && !redRep.Truncated
					if (deterministic || exhaustive) && redRep.States != fullRep.States {
						t.Fatalf("%s: degraded run visited %d states, full %d — degradation must be total",
							name, redRep.States, fullRep.States)
					}
				}
				if rp.Violated {
					final := replayStates(t, full, rp.Path)
					if len(final) == 0 {
						t.Fatalf("%s: counterexample %v is not a run of the system", name, rp.Path)
					}
					if tc.confirm != nil {
						ok := false
						for id := range final {
							if tc.confirm(full.State(id)) {
								ok = true
								break
							}
						}
						if !ok {
							t.Fatalf("%s: no final state of replayed %v confirms the violation", name, rp.Path)
						}
					}
				}
			}
		}
	}
}

// TestReductionEngagesAndShrinks pins that reduction actually reduces
// when it may: on DiamondGrid the property pins one component and the
// other four clusters collapse, and the union of several reducible
// properties stays reducible.
func TestReductionEngagesAndShrinks(t *testing.T) {
	sys, err := models.DiamondGrid(6)
	if err != nil {
		t.Fatal(err)
	}
	fullRep, err := bip.Verify(sys, bip.Deadlock(), bip.Prop(prop.Reachable(prop.At("c3", "s2"))))
	if err != nil {
		t.Fatal(err)
	}
	redRep, err := bip.Verify(sys, bip.Deadlock(), bip.Prop(prop.Reachable(prop.At("c3", "s2"))), bip.Reduce())
	if err != nil {
		t.Fatal(err)
	}
	if !redRep.Reduced {
		t.Fatalf("union of deadlockfree and reachable(at(c3,s2)) must stay reducible: %+v", redRep)
	}
	if redRep.States*5 > fullRep.States {
		t.Fatalf("expected >=5x state reduction, got %d reduced vs %d full", redRep.States, fullRep.States)
	}
	if redRep.AmpleStates == 0 || redRep.PrunedMoves == 0 {
		t.Fatalf("reduction counters must be populated: %+v", redRep)
	}
	if !strings.Contains(redRep.String(), "reduced:") {
		t.Fatalf("Report.String must surface the reduction summary: %s", redRep)
	}
	dl, _ := redRep.Property("deadlock")
	if !dl.Violated {
		t.Fatalf("DiamondGrid's all-s2 deadlock must survive reduction: %+v", dl)
	}
}
