package prop_test

import (
	"sync"
	"testing"

	"bip/check"
	"bip/models"
	"bip/prop"
)

// TestCompilePredConcurrent calls one CompilePred closure from several
// goroutines at once: each call evaluates on its own scratch state, so
// every answer matches the state it was asked about (run under -race).
func TestCompilePredConcurrent(t *testing.T) {
	sys, err := models.CounterGrid(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	l, err := check.Explore(sys, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := prop.CompilePred(sys, prop.Lt(prop.Var("ctr0", "c"), prop.Var("ctr1", "c")))
	if err != nil {
		t.Fatal(err)
	}
	a0, a1 := sys.AtomIndex("ctr0"), sys.AtomIndex("ctr1")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := 0; i < l.NumStates(); i++ {
					st := l.State(i)
					if got, want := f(st), intVar(st, a0, "c") < intVar(st, a1, "c"); got != want {
						t.Errorf("state %d: got %v, want %v", i, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
