package distributed

import (
	"strings"
	"testing"

	"bip/internal/behavior"
	"bip/internal/core"
	"bip/models"
)

func TestDeployPhilosophersAllCRPs(t *testing.T) {
	for _, crp := range []CRP{Centralized, TokenRing, Ordered} {
		t.Run(crp.String(), func(t *testing.T) {
			sys, err := models.Philosophers(4)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Deploy(sys, Config{CRP: crp, Seed: 11, MaxCommits: 60, MaxMessages: 200000})
			if err != nil {
				t.Fatalf("Deploy: %v", err)
			}
			stats, err := d.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if stats.Commits < 60 {
				t.Fatalf("commits = %d, want 60", stats.Commits)
			}
			// Correctness witness: the committed order is a legal run of
			// the reference semantics.
			if _, err := ReplayLabels(sys, stats.Labels); err != nil {
				t.Fatalf("committed order invalid: %v", err)
			}
			// Fairness sanity: more than one philosopher eats.
			eaters := map[string]bool{}
			for _, l := range stats.Labels {
				if strings.HasPrefix(l, "eat") {
					eaters[l] = true
				}
			}
			if len(eaters) < 2 {
				t.Fatalf("only %d philosophers ate: %v", len(eaters), eaters)
			}
		})
	}
}

func TestDeployTokenRingModel(t *testing.T) {
	sys, err := models.TokenRing(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, crp := range []CRP{Centralized, TokenRing, Ordered} {
		t.Run(crp.String(), func(t *testing.T) {
			d, err := Deploy(sys, Config{CRP: crp, Seed: 3, MaxCommits: 40, MaxMessages: 100000})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := d.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if _, err := ReplayLabels(sys, stats.Labels); err != nil {
				t.Fatalf("committed order invalid: %v", err)
			}
			// The token-ring model is fully sequential: the labels must
			// be pass0, pass1, ... in ring order regardless of CRP.
			for i, l := range stats.Labels {
				want := "pass" + string(rune('0'+i%5))
				if l != want {
					t.Fatalf("label %d = %s, want %s", i, l, want)
				}
			}
		})
	}
}

func TestDeployProducerConsumerDataTransfer(t *testing.T) {
	sys, err := models.ProducerConsumer(2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(sys, Config{CRP: Ordered, Seed: 5, MaxCommits: 50, MaxMessages: 100000})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := d.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Commits < 50 {
		t.Fatalf("commits = %d", stats.Commits)
	}
	// Replay validates both ordering and that guards (count bounds) were
	// respected with the transferred data.
	if _, err := ReplayLabels(sys, stats.Labels); err != nil {
		t.Fatalf("committed order invalid: %v", err)
	}
	// Bounded buffer: at no prefix do puts exceed gets by more than 2.
	puts, gets := 0, 0
	for _, l := range stats.Labels {
		switch l {
		case "put":
			puts++
		case "get":
			gets++
		}
		if puts-gets > 2 || gets > puts {
			t.Fatalf("buffer discipline violated: puts=%d gets=%d", puts, gets)
		}
	}
}

func TestPartitioning(t *testing.T) {
	sys, err := models.Philosophers(3)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit partition: eats in one block, puts in another.
	d, err := Deploy(sys, Config{
		CRP:       Ordered,
		Partition: [][]string{{"eat0", "eat1", "eat2"}, {"put0", "put1", "put2"}},
		Seed:      1, MaxCommits: 30, MaxMessages: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks()) != 2 {
		t.Fatalf("blocks = %d, want 2", len(d.Blocks()))
	}
	stats, err := d.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := ReplayLabels(sys, stats.Labels); err != nil {
		t.Fatalf("committed order invalid: %v", err)
	}

	// Unknown interaction in partition.
	if _, err := Deploy(sys, Config{Partition: [][]string{{"ghost"}}}); err == nil {
		t.Fatal("unknown interaction must be rejected")
	}
	// Duplicate assignment.
	if _, err := Deploy(sys, Config{Partition: [][]string{{"eat0"}, {"eat0"}}}); err == nil {
		t.Fatal("interaction in two blocks must be rejected")
	}
}

func TestSinglePartitionNoSharing(t *testing.T) {
	// All interactions in one block: nothing is externally conflicting,
	// so no CRP traffic is needed and even TokenRing never moves the
	// token.
	sys, err := models.Philosophers(3)
	if err != nil {
		t.Fatal(err)
	}
	all := sys.InteractionNames()
	d, err := Deploy(sys, Config{
		CRP:       TokenRing,
		Partition: [][]string{all},
		Seed:      2, MaxCommits: 30, MaxMessages: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := d.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := ReplayLabels(sys, stats.Labels); err != nil {
		t.Fatalf("committed order invalid: %v", err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	sys, err := models.Philosophers(3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Stats {
		d, err := Deploy(sys, Config{CRP: Ordered, Seed: 42, MaxCommits: 25, MaxMessages: 100000})
		if err != nil {
			t.Fatal(err)
		}
		s, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if strings.Join(a.Labels, ",") != strings.Join(b.Labels, ",") || a.Messages != b.Messages {
		t.Fatal("same seed must reproduce the identical run")
	}
}

func TestCRPCostsDiffer(t *testing.T) {
	// The three protocols must all work but pay different message
	// costs; this is the qualitative shape E7 tabulates.
	sys, err := models.Philosophers(5)
	if err != nil {
		t.Fatal(err)
	}
	costs := map[CRP]float64{}
	for _, crp := range []CRP{Centralized, TokenRing, Ordered} {
		d, err := Deploy(sys, Config{CRP: crp, Seed: 9, MaxCommits: 80, MaxMessages: 400000})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := d.Run()
		if err != nil {
			t.Fatalf("%v: %v", crp, err)
		}
		if _, err := ReplayLabels(sys, stats.Labels); err != nil {
			t.Fatalf("%v: invalid order: %v", crp, err)
		}
		costs[crp] = stats.MsgPerCommit
	}
	t.Logf("msg/commit: centralized=%.1f tokenring=%.1f ordered=%.1f",
		costs[Centralized], costs[TokenRing], costs[Ordered])
	for crp, c := range costs {
		if c <= 0 {
			t.Fatalf("%v: zero message cost", crp)
		}
	}
}

func TestReplayLabelsRejectsIllegal(t *testing.T) {
	sys, err := models.TokenRing(3)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ReplayLabels(sys, []string{"pass1"}); err == nil || n != 0 {
		t.Fatal("pass1 is not initially enabled; replay must fail at step 0")
	}
	if _, err := ReplayLabels(sys, []string{"nonexistent"}); err == nil {
		t.Fatal("unknown label must fail")
	}
}

// TestReplayLabelsNondeterministicLabel replays a word whose first
// label names two moves: p leads from l0 to l2 or to l1, and only l1
// enables q. Committing to the first move that matches p would reject
// the legal run [p q].
func TestReplayLabelsNondeterministicLabel(t *testing.T) {
	a := behavior.NewBuilder("A").
		Location("l0", "l1", "l2").
		Port("p").Port("q").
		Transition("l0", "p", "l2").
		Transition("l0", "p", "l1").
		Transition("l1", "q", "l1").
		MustBuild()
	sys, err := core.NewSystem("nondet").
		Add(a).
		Connect("p", core.P("A", "p")).
		Connect("q", core.P("A", "q")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ReplayLabels(sys, []string{"p", "q", "q"}); err != nil || n != 3 {
		t.Fatalf("ReplayLabels([p q q]) = %d, %v; want 3, nil", n, err)
	}
	if n, err := ReplayLabels(sys, []string{"p", "p"}); err == nil || n != 1 {
		t.Fatalf("ReplayLabels([p p]) = %d, %v; want a failure at step 1", n, err)
	}
}

func TestCRPString(t *testing.T) {
	if Centralized.String() != "centralized" || TokenRing.String() != "tokenring" ||
		Ordered.String() != "ordered" || CRP(99).String() != "invalid" {
		t.Fatal("CRP.String broken")
	}
}

// TestDeployRefusesPriorities: the interaction protocols implement the
// unprioritized semantics, so a prioritized model would fire
// interactions its rules forbid; Deploy refuses it and names the first
// rule.
func TestDeployRefusesPriorities(t *testing.T) {
	sys, err := models.Temperature(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Deploy(sys, Config{})
	if err == nil {
		t.Fatal("Deploy accepted a prioritized system")
	}
	if want := sys.Priorities[0].String(); !strings.Contains(err.Error(), want) {
		t.Fatalf("Deploy error %q does not name the first priority %q", err, want)
	}
}
