package bip_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bip"
	"bip/models"
)

// This file pins the observer-automaton checker's exact verdicts: for
// seeded after/until/between properties on three models, the violating
// state id and the product counterexample path at one worker (and, the
// deterministic stream being worker-count independent, at four), and
// the verdicts on the unordered stream at four workers, where the
// particular bad pair may differ but violated/conclusive may not.

// oracleCase is one model with its seeded properties and their pinned
// outcomes, in property order.
type oracleCase struct {
	name  string
	build func() (*bip.System, error)
	props func(rng *rand.Rand) []string
	seed  int64
	want  []oracleVerdict
}

// oracleVerdict is the pinned outcome of one property.
type oracleVerdict struct {
	prop     string
	violated bool
	state    int
	path     []string
}

// backEdgeModel is one atom whose BFS reaches l2 before the back edge
// l1 -back-> l0 re-enters the initial state: the observer state that
// back arms reaches l0, and through it l2, only after both were
// expanded, so the product re-propagates through an already expanded
// state and the violation is found at a state that already carried a
// different observer state.
const backEdgeModel = `system backedge
atom Loop {
  port go, back, fin, stay
  location l0, l1, l2
  init l0
  from l0 to l1 on go
  from l1 to l0 on back
  from l0 to l2 on fin
  from l2 to l2 on stay
}
instance x : Loop
connector go = x.go
connector back = x.back
connector fin = x.fin
connector stay = x.stay
`

var oracleCases = []oracleCase{
	{
		name:  "countergrid-3x5",
		build: func() (*bip.System, error) { return models.CounterGrid(3, 5) },
		seed:  11,
		props: func(rng *rand.Rand) []string {
			c := rng.Perm(3)
			k := 2 + rng.Intn(3)
			return []string{
				fmt.Sprintf("after(inc%d, always(ctr%d.c < %d))", c[0], c[1], k),
				// Violated only once ctr a wraps back to 0: the state
				// with ctr a at 0 and ctr b at 1 is first reached
				// before inc a and re-reached through the wrap.
				fmt.Sprintf("after(inc%d, never(ctr%d.c == 0 & ctr%d.c == 1))", c[0], c[0], c[1]),
				fmt.Sprintf("until(ctr%d.c < %d, inc%d)", c[0], k, c[2]),
				fmt.Sprintf("between(inc%d, inc%d, ctr%d.c != %d)", c[1], c[2], c[0], k),
				fmt.Sprintf("after(inc%d, until(ctr%d.c >= 0, inc%d))", c[0], c[1], c[2]),
			}
		},
		want: []oracleVerdict{
			{"after(inc0, always(ctr1.c < 3))", true, 26, []string{"inc0", "inc1", "inc1", "inc1"}},
			{"after(inc0, never(ctr0.c == 0 & ctr1.c == 1))", true, 2, []string{"inc0", "inc0", "inc0", "inc0", "inc0", "inc1"}},
			{"until(ctr0.c < 3, inc2)", true, 10, []string{"inc0", "inc0", "inc0"}},
			{"between(inc1, inc2, ctr0.c != 3)", true, 21, []string{"inc0", "inc0", "inc0", "inc1"}},
			{"after(inc0, until(ctr1.c >= 0, inc2))", false, 0, nil},
		},
	},
	{
		name: "philrings-2x4-ctl",
		build: func() (*bip.System, error) {
			sys, err := models.PhilosopherRings(2, 4)
			if err != nil {
				return nil, err
			}
			return models.ControlOnly(sys)
		},
		seed: 12,
		props: func(rng *rand.Rand) []string {
			i, j := rng.Intn(4), rng.Intn(4)
			return []string{
				fmt.Sprintf("after(r0_eat%d, always(at(r1_phil%d, thinking)))", i, j),
				// Violated only on the second meal, back through the
				// initial state.
				fmt.Sprintf("after(r0_put%d, never(at(r0_phil%d, eating)))", i, i),
				fmt.Sprintf("until(at(r0_phil%d, thinking), r1_eat%d)", i, j),
				fmt.Sprintf("between(r0_eat%d, r0_put%d, at(r0_phil%d, thinking))", i, i, (i+1)%4),
				fmt.Sprintf("between(r1_eat%d, r1_put%d, at(r0_phil%d, thinking))", j, j, i),
			}
		},
		want: []oracleVerdict{
			{"after(r0_eat1, always(at(r1_phil3, thinking)))", true, 18, []string{"r0_eat1", "r1_eat3"}},
			{"after(r0_put1, never(at(r0_phil1, eating)))", true, 2, []string{"r0_eat1", "r0_put1", "r0_eat1"}},
			{"until(at(r0_phil1, thinking), r1_eat3)", true, 2, []string{"r0_eat1"}},
			{"between(r0_eat1, r0_put1, at(r0_phil2, thinking))", false, 0, nil},
			{"between(r1_eat3, r1_put3, at(r0_phil1, thinking))", true, 18, []string{"r0_eat1", "r1_eat3"}},
		},
	},
	{
		name:  "backedge",
		build: func() (*bip.System, error) { return bip.Parse(backEdgeModel) },
		seed:  13,
		props: func(*rand.Rand) []string {
			return []string{
				"after(back, always(!at(x, l2)))",
				"between(back, go, !at(x, l2))",
			}
		},
		want: []oracleVerdict{
			{"after(back, always(!at(x, l2)))", true, 2, []string{"go", "back", "fin"}},
			{"between(back, go, !at(x, l2))", true, 2, []string{"go", "back", "fin"}},
		},
	},
}

// TestObserverCounterexampleOracle pins every property's verdict, state
// and path on the deterministic stream at workers 1 and 4, and the
// verdicts on the unordered stream at four workers.
func TestObserverCounterexampleOracle(t *testing.T) {
	for _, tc := range oracleCases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			srcs := tc.props(rand.New(rand.NewSource(tc.seed)))
			opts := make([]bip.Option, 0, len(srcs)+2)
			for _, src := range srcs {
				p, err := bip.ParseProp(src)
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, bip.Prop(p))
			}
			for _, w := range []int{1, 4} {
				rep, err := bip.Verify(sys, append(opts, bip.Workers(w))...)
				if err != nil {
					t.Fatal(err)
				}
				var got []oracleVerdict
				for i, p := range rep.Properties {
					v := oracleVerdict{prop: srcs[i], violated: p.Violated}
					if p.Violated {
						v.state, v.path = p.State, p.Path
					}
					got = append(got, v)
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("workers %d:\n got %#v\nwant %#v", w, got, tc.want)
				}
			}
			rep, err := bip.Verify(sys, append(opts, bip.Workers(4), bip.Unordered())...)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range rep.Properties {
				if p.Violated != tc.want[i].violated || !p.Conclusive {
					t.Fatalf("unordered %s: violated=%v conclusive=%v, want violated=%v conclusive",
						srcs[i], p.Violated, p.Conclusive, tc.want[i].violated)
				}
			}
		})
	}
}
