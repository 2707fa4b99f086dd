package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"bip/internal/behavior"
	"bip/internal/core"
	"bip/internal/expr"
	"bip/models"
)

// exchangeSystem is a two-component model with guarded data transfer
// and a conditional priority over transferred variables: give and take
// move value between a and b under complementary guards, and a's
// singleton yields to give once a.x exceeds 4.
func exchangeSystem(t testing.TB) *core.System {
	t.Helper()
	acc := func(x0 int64) *behavior.Atom {
		return behavior.NewBuilder("acc").
			Location("s").Int("x", x0).Port("p", "x").
			TransitionG("s", "p", "s", nil, expr.Set("x", expr.Add(expr.V("x"), expr.I(1)))).
			MustBuild()
	}
	sys, err := core.NewSystem("exchange").
		AddAs("a", acc(5)).AddAs("b", acc(1)).
		ConnectGD("give", expr.Ge(expr.V("a.x"), expr.V("b.x")),
			expr.Do(expr.Set("a.x", expr.Sub(expr.V("a.x"), expr.V("b.x"))),
				expr.Set("b.x", expr.Add(expr.V("b.x"), expr.I(2)))),
			core.P("a", "p"), core.P("b", "p")).
		ConnectGD("take", expr.Lt(expr.V("a.x"), expr.V("b.x")),
			expr.Do(expr.Set("b.x", expr.Sub(expr.V("b.x"), expr.V("a.x"))),
				expr.Set("a.x", expr.Add(expr.V("a.x"), expr.I(3)))),
			core.P("a", "p"), core.P("b", "p")).
		Singleton("a", "p").
		PriorityWhen("a.p", "give", expr.Gt(expr.V("a.x"), expr.I(4))).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// quiescentCoordinator returns a coordinator holding every component's
// offer at the global state st, each built by makeOffer as
// componentLoop builds it, over a private copy of the component's store
// (returned, indexed like sys.Atoms).
func quiescentCoordinator(t *testing.T, sys *core.System, st core.State) (*coordinator, []expr.Slots) {
	t.Helper()
	c := newCoordinator(sys)
	stores := make([]expr.Slots, len(sys.Atoms))
	for ai, a := range sys.Atoms {
		stores[ai] = st.Vars[ai].Clone()
		o, err := makeOffer(a, ai, behavior.State{Loc: st.Locs[ai], Vars: stores[ai]})
		if err != nil {
			t.Fatal(err)
		}
		c.install(o)
	}
	return c, stores
}

func sameMoves(a, b []core.Move) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Interaction != b[i].Interaction || !equalChoices(a[i].Choices, b[i].Choices) {
			return false
		}
	}
	return true
}

// TestCoordinatorAgreesWithSemantics holds the multi-threaded
// coordinator to core's reference semantics at every quiescent round of
// a seeded walk. With every component's offer built from a global state
// st, the coordinator's evaluable moves must be sys.Enabled(st): the
// same moves in the same order, priorities (conditional ones included)
// applied. Committing any one of them and executing the commands it
// sends must leave every component's location and store equal to
// sys.Exec(st, m)'s.
func TestCoordinatorAgreesWithSemantics(t *testing.T) {
	temperature, err := models.Temperature(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	prodcons, err := models.ProducerConsumer(2)
	if err != nil {
		t.Fatal(err)
	}
	gcd, err := models.GCD(12, 18)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*core.System{temperature, prodcons, gcd, conflictSystem(t, 3), exchangeSystem(t)} {
		t.Run(sys.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			st := sys.Initial()
			for step := 0; step < 40; step++ {
				want, err := sys.Enabled(st)
				if err != nil {
					t.Fatal(err)
				}
				c, _ := quiescentCoordinator(t, sys, st)
				got, err := c.evaluable()
				if err != nil {
					t.Fatalf("step %d: evaluable: %v", step, err)
				}
				if !sameMoves(got, want) {
					t.Fatalf("step %d: evaluable %v, want Enabled %v", step, got, want)
				}
				for _, m := range want {
					if err := checkCommit(t, sys, st, m); err != nil {
						t.Fatalf("step %d: %s: %v", step, sys.Label(m), err)
					}
				}
				if len(want) == 0 {
					break
				}
				if st, err = sys.Exec(st, want[rng.Intn(len(want))]); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// checkCommit commits m on a fresh quiescent coordinator at st, executes
// the commands it sent the way componentLoop does, and compares every
// component with sys.Exec(st, m).
func checkCommit(t *testing.T, sys *core.System, st core.State, m core.Move) error {
	next, err := sys.Exec(st, m)
	if err != nil {
		return err
	}
	c, stores := quiescentCoordinator(t, sys, st)
	cmds := make([]chan command, len(sys.Atoms))
	for ai := range cmds {
		cmds[ai] = make(chan command, 1)
	}
	if err := c.commit(m, cmds); err != nil {
		return err
	}
	for ai, a := range sys.Atoms {
		local := behavior.State{Loc: st.Locs[ai], Vars: stores[ai]}
		select {
		case cmd := <-cmds[ai]:
			if err := cmd.execute(a, &local); err != nil {
				return err
			}
		default:
		}
		if !local.Equal(next.Local(ai)) {
			return fmt.Errorf("component %s reads %s after the commit, want %s", a.Name, local.Key(), next.Local(ai).Key())
		}
	}
	return nil
}
