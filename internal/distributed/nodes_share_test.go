package distributed

import (
	"fmt"
	"sync"
	"testing"

	"bip/internal/behavior"
	"bip/internal/expr"
	"bip/internal/network"
	"bip/models"
)

// probeIP is a minimal interaction-protocol stand-in that reserves and
// commits against one component while retaining the first offer's
// variable store. It is the instrument of the publish-immutability
// regression test below.
type probeIP struct {
	comp       network.NodeID
	maxCommits int

	commits   int
	attempt   int64
	cur       offerMsg
	first     expr.Slots // shared store as published
	firstCopy expr.Slots // deep copy taken at publication time
}

func (p *probeIP) Init(network.Context) {}

func (p *probeIP) Recv(ctx network.Context, from network.NodeID, msg any) {
	switch m := msg.(type) {
	case offerMsg:
		if p.first.L == nil {
			p.first = m.Vars
			p.firstCopy = m.Vars.Clone()
		}
		if p.commits >= p.maxCommits {
			return
		}
		p.cur = m
		p.attempt++
		ctx.Send(p.comp, reserveMsg{Seq: m.Seq, Attempt: p.attempt})
	case reserveOKMsg:
		// Commit with a data-transfer update, like a real IP would.
		p.commits++
		vars := p.cur.Vars.Clone()
		if err := vars.Set("x", expr.IntVal(int64(100*p.commits))); err != nil {
			panic(err)
		}
		ctx.Send(p.comp, commitMsg{
			Attempt: p.attempt,
			Trans:   p.cur.Enabled["p"][0],
			Vars:    vars,
		})
	}
}

// TestOfferStoresImmutableAfterCommit is the regression test for offer
// sharing: offers no longer clone the component's variable store per
// round, which is sound only as long as a published store is never
// written again. Drive a component through several commits (each with
// variable updates and a local action) and check that the store
// published by the very first offer still reads exactly as it did at
// publication time.
func TestOfferStoresImmutableAfterCommit(t *testing.T) {
	atom := behavior.NewBuilder("c").
		Location("s").Int("x", 7).
		Port("p", "x").
		TransitionG("s", "p", "s", nil, expr.Set("x", expr.Add(expr.V("x"), expr.I(1)))).
		MustBuild()
	sim := network.NewSim(5)
	probe := &probeIP{comp: compID("c"), maxCommits: 3}
	if err := sim.AddNode(compID("c"), newCompNode(atom, []network.NodeID{"probe"})); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddNode("probe", probe); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10000); err != nil {
		t.Fatal(err)
	}
	if probe.commits != 3 {
		t.Fatalf("probe committed %d times, want 3", probe.commits)
	}
	if probe.first.L == nil {
		t.Fatal("no offer observed")
	}
	if !probe.first.Equal(probe.firstCopy) {
		t.Fatalf("published store mutated after commit: %v, was %v at publication", probe.first, probe.firstCopy)
	}
}

// TestDeploymentsRaceClean runs full deployments of a data-carrying
// model concurrently. Under -race (the CI race job) this pins that the
// shared-offer protocol keeps all mutable state confined to its own
// simulation — and that runs stay deterministic while doing so.
func TestDeploymentsRaceClean(t *testing.T) {
	run := func() ([]string, error) {
		sys, err := models.ProducerConsumer(2)
		if err != nil {
			return nil, err
		}
		d, err := Deploy(sys, Config{CRP: Ordered, Seed: 9, MaxCommits: 40, MaxMessages: 200000})
		if err != nil {
			return nil, err
		}
		stats, err := d.Run()
		if err != nil {
			return nil, err
		}
		if _, err := ReplayLabels(sys, stats.Labels); err != nil {
			return nil, fmt.Errorf("committed order invalid: %w", err)
		}
		return stats.Labels, nil
	}
	const n = 4
	labels := make([][]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			labels[i], errs[i] = run()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if fmt.Sprint(labels[i]) != fmt.Sprint(labels[0]) {
			t.Fatalf("concurrent runs diverged:\n run0: %v\n run%d: %v", labels[0], i, labels[i])
		}
	}
}
