package distributed

import (
	"math/rand"
	"testing"

	"bip/internal/behavior"
	"bip/internal/core"
	"bip/internal/expr"
	"bip/internal/network"
	"bip/models"
)

// exchangeSystem is a two-component model with guarded data transfer:
// give and take move value between a and b under complementary guards.
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
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// compAt returns a component node positioned at component ai's part of
// st, on a private copy of its store.
func compAt(sys *core.System, st core.State, ai int, ips []network.NodeID) *compNode {
	c := newCompNode(sys.Atoms[ai], ips)
	c.st = behavior.State{Loc: st.Locs[ai], Vars: st.Vars[ai].Clone()}
	return c
}

// oneCommit is a component node that stops offering once it has been
// committed, so a run ends after the first commit of its participants.
type oneCommit struct{ *compNode }

func (w oneCommit) Recv(ctx network.Context, from network.NodeID, msg any) {
	if _, ok := msg.(commitMsg); ok {
		w.ips = nil
	}
	w.compNode.Recv(ctx, from, msg)
}

// TestIPAgreesWithSemantics holds an interaction-protocol node to
// core's reference semantics at every state st of a seeded walk. With
// every component's offer built from st, interactionEnabled must hold
// exactly for the interactions with a move in sys.EnabledRaw(st). And
// one commit of each enabled interaction, run through the protocol,
// must leave its participants' states equal to sys.Exec(st, m), m being
// the interaction's first move (each port's first enabled transition,
// the IP's choice).
func TestIPAgreesWithSemantics(t *testing.T) {
	prodcons, err := models.ProducerConsumer(2)
	if err != nil {
		t.Fatal(err)
	}
	gcd, err := models.GCD(12, 18)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*core.System{prodcons, gcd, exchangeSystem(t)} {
		t.Run(sys.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			st := sys.Initial()
			all := make([]int, len(sys.Interactions))
			for ii := range all {
				all[ii] = ii
			}
			for step := 0; step < 40; step++ {
				raw, err := sys.EnabledRaw(st)
				if err != nil {
					t.Fatal(err)
				}
				first := make(map[int]core.Move)
				for _, m := range raw {
					if _, ok := first[m.Interaction]; !ok {
						first[m.Interaction] = m
					}
				}
				ip := newIPNode(sys, 0, all, nil, Ordered, 1)
				for ai, a := range sys.Atoms {
					ip.offers[a.Name] = compAt(sys, st, ai, nil).offer()
				}
				for ii, in := range sys.Interactions {
					_, want := first[ii]
					if got := ip.interactionEnabled(ii); got != want {
						t.Fatalf("step %d: %s: interactionEnabled = %v, want %v", step, in.Name, got, want)
					}
				}
				for ii, m := range first {
					checkIPCommit(t, sys, st, ii, m)
				}
				if len(raw) == 0 {
					break
				}
				if st, err = sys.Exec(st, raw[rng.Intn(len(raw))]); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// checkIPCommit deploys interaction ii alone at st, runs the protocol to
// its first commit and compares the participants with sys.Exec(st, m).
func checkIPCommit(t *testing.T, sys *core.System, st core.State, ii int, m core.Move) {
	t.Helper()
	next, err := sys.Exec(st, m)
	if err != nil {
		t.Fatal(err)
	}
	sim := network.NewSim(1)
	comps := make(map[int]*compNode)
	for _, ai := range sys.PortAtoms(ii) {
		c := compAt(sys, st, ai, []network.NodeID{ipID(0)})
		comps[ai] = c
		if err := sim.AddNode(compID(sys.Atoms[ai].Name), oneCommit{c}); err != nil {
			t.Fatal(err)
		}
	}
	obs := &observer{max: 1 << 30}
	if err := sim.AddNode(ipID(0), newIPNode(sys, 0, []int{ii}, nil, Ordered, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddNode(observerID, obs); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10000); err != nil {
		t.Fatal(err)
	}
	name := sys.Interactions[ii].Name
	if len(obs.labels) != 1 || obs.labels[0] != name {
		t.Fatalf("%s: committed %v, want exactly one %s", name, obs.labels, name)
	}
	for ai, c := range comps {
		if !c.st.Equal(next.Local(ai)) {
			t.Fatalf("%s: component %s reads %s after the commit, want %s",
				name, sys.Atoms[ai].Name, c.st.Key(), next.Local(ai).Key())
		}
	}
}
