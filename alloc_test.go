package bip_test

import (
	"testing"

	"bip"
	"bip/models"
)

// verifyAllocsSlack is the allocation budget of a Verify call that does
// not grow with the state count: compiling the properties, the driver,
// the seen set's table, the first chunks of every append-only table and,
// on the deques, the workers and the spill file.
const verifyAllocsSlack = 300

// verifyAllocsPerState is what one explored state may cost the
// allocator on average. Nothing is allocated per state: successors are
// executed and keyed in scratch buffers, fresh states and their move
// tables are carved from slabs (reloaded spill states too), the BFS
// tree is an id-indexed table of pointer-free records, and the
// checkers keep their product tables in chunks. What remains grows
// with the state count only by whole chunks.
const verifyAllocsPerState = 0.05

// TestVerifyAllocsPerState pins what one explored state costs the
// allocator under a property mix like the benchmark's: a state
// predicate (always), an observer automaton (after/until) and
// deadlockfree, on the benchmark's grid, sequentially and on the
// benchmark's fast route (two workers on the deques, compact seen set,
// a budget small enough to spill).
func TestVerifyAllocsPerState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	sys, err := models.CounterGrid(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	var props []bip.Option
	for _, src := range []string{
		"always(ctr4.c < 7)",
		"after(inc0, until(ctr1.c >= 0, inc2))",
		"deadlockfree",
	} {
		p, err := bip.ParseProp(src)
		if err != nil {
			t.Fatal(err)
		}
		props = append(props, bip.Prop(p))
	}
	for _, c := range []struct {
		name  string
		route []bip.Option
	}{
		{"seq", nil},
		{"fast", []bip.Option{bip.Workers(2), bip.Unordered(), bip.CompactSeen(), bip.MemBudget(32 << 10)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := append(append([]bip.Option(nil), props...), c.route...)
			var rep *bip.Report
			var runErr error
			allocs := testing.AllocsPerRun(3, func() {
				rep, runErr = bip.Verify(sys, opts...)
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			if !rep.OK || rep.States != 7*7*7*7*7 {
				t.Fatalf("want every property to hold over 16807 states, got %s", rep)
			}
			budget := verifyAllocsPerState*float64(rep.States) + verifyAllocsSlack
			t.Logf("%.0f allocations for %d states (%.3f per state)", allocs, rep.States, allocs/float64(rep.States))
			if allocs > budget {
				t.Fatalf("%.0f allocations for %d states, budget %.0f (%.2f per state + %d)",
					allocs, rep.States, budget, verifyAllocsPerState, verifyAllocsSlack)
			}
		})
	}
}
