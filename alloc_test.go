package bip_test

import (
	"testing"

	"bip"
	"bip/models"
)

// verifyAllocsSlack is the allocation budget of a Verify call that does
// not grow with the state count: compiling the properties, the driver,
// the seen set's table and the first chunks of every append-only table.
const verifyAllocsSlack = 300

// TestVerifyAllocsPerState pins what one explored state costs the
// allocator under a property mix like the benchmark's: a state
// predicate (always), an observer automaton (after/until) and
// deadlockfree. The one allocation a state may make is its BFS-tree
// node; the checkers evaluate predicates without moving the state to the
// heap and keep their product tables in chunks, so they add nothing per
// state.
func TestVerifyAllocsPerState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	sys, err := models.CounterGrid(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	var opts []bip.Option
	for _, src := range []string{
		"always(ctr3.c < 7)",
		"after(inc0, until(ctr1.c >= 0, inc2))",
		"deadlockfree",
	} {
		p, err := bip.ParseProp(src)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, bip.Prop(p))
	}
	var rep *bip.Report
	var runErr error
	allocs := testing.AllocsPerRun(3, func() {
		rep, runErr = bip.Verify(sys, opts...)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !rep.OK || rep.States != 7*7*7*7 {
		t.Fatalf("want every property to hold over 2401 states, got %s", rep)
	}
	budget := 1.1*float64(rep.States) + verifyAllocsSlack
	t.Logf("%.0f allocations for %d states (%.2f per state)", allocs, rep.States, allocs/float64(rep.States))
	if allocs > budget {
		t.Fatalf("%.0f allocations for %d states, budget %.0f (1.1 per state + %d)",
			allocs, rep.States, budget, verifyAllocsSlack)
	}
}
