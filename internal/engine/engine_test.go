package engine

import (
	"errors"
	"strings"
	"testing"

	"bip/internal/behavior"
	"bip/internal/core"
	"bip/internal/expr"
	"bip/models"
)

func TestRunTokenRing(t *testing.T) {
	sys, err := models.TokenRing(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, Options{MaxSteps: 8})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Steps != 8 || res.Deadlocked {
		t.Fatalf("steps=%d deadlocked=%v, want 8 steps", res.Steps, res.Deadlocked)
	}
	// The token visits stations in order: pass0, pass1, pass2, pass3,
	// pass0, ...
	want := []string{"pass0", "pass1", "pass2", "pass3", "pass0", "pass1", "pass2", "pass3"}
	for i, lab := range res.Labels {
		if lab != want[i] {
			t.Fatalf("labels = %v, want %v", res.Labels, want)
		}
	}
	// After two full rounds the token is back at station 0, which has
	// seen it 3 times (initial + 2 passes).
	if v, _ := res.Final.Vars[sys.AtomIndex("st0")].Get("seen"); !v.Equal(expr.IntVal(3)) {
		t.Fatalf("st0.seen = %v, want 3", v)
	}
}

func TestRunDeadlockStops(t *testing.T) {
	oneShot := behavior.NewBuilder("x").
		Location("s", "t").Port("p").Transition("s", "p", "t").MustBuild()
	sys := core.NewSystem("stopper").
		Add(oneShot).Singleton("x", "p").MustBuild()
	res, err := Run(sys, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Deadlocked || res.Steps != 1 {
		t.Fatalf("steps=%d deadlocked=%v, want 1 step then deadlock", res.Steps, res.Deadlocked)
	}
}

func TestRunRandomSchedulerReproducible(t *testing.T) {
	sys, err := models.Philosophers(3)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(sys, Options{MaxSteps: 200, Scheduler: NewRandomScheduler(42)})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sys, Options{MaxSteps: 200, Scheduler: NewRandomScheduler(42)})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r1.Labels, ",") != strings.Join(r2.Labels, ",") {
		t.Fatal("same seed must give the same run")
	}
	r3, err := Run(sys, Options{MaxSteps: 200, Scheduler: NewRandomScheduler(43)})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r1.Labels, ",") == strings.Join(r3.Labels, ",") {
		t.Fatal("different seeds should (overwhelmingly) give different runs")
	}
}

func TestRunOnStepAndInvariantCheck(t *testing.T) {
	sys, err := models.ProducerConsumer(2)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	res, err := Run(sys, Options{
		MaxSteps:        50,
		CheckInvariants: true,
		OnStep:          func(int, string, core.State) { steps++ },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if steps != res.Steps {
		t.Fatalf("OnStep called %d times for %d steps", steps, res.Steps)
	}
}

func TestRunInvariantViolationAborts(t *testing.T) {
	bad := behavior.NewBuilder("bad").
		Location("s").
		Int("x", 0).
		Port("p", "x").
		TransitionG("s", "p", "s", nil, expr.Set("x", expr.Sub(expr.V("x"), expr.I(1)))).
		Invariant(expr.Ge(expr.V("x"), expr.I(0))).
		MustBuild()
	sys := core.NewSystem("bad").Add(bad).Singleton("bad", "p").MustBuild()
	_, err := Run(sys, Options{MaxSteps: 5, CheckInvariants: true})
	if err == nil || !errors.Is(err, ErrInvariantViolated) {
		t.Fatalf("err = %v, want ErrInvariantViolated", err)
	}
}

func TestTemperaturePriorityScheduling(t *testing.T) {
	// The priorities prefer the most rested rod; over a long run the
	// rods alternate rather than one being hammered.
	sys, err := models.Temperature(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, Options{MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	cool1, cool2 := 0, 0
	for _, l := range res.Labels {
		switch l {
		case "cool1":
			cool1++
		case "cool2":
			cool2++
		}
	}
	if cool1 == 0 || cool2 == 0 {
		t.Fatalf("rod usage cool1=%d cool2=%d: priority scheduling must alternate rods", cool1, cool2)
	}
	if diff := cool1 - cool2; diff < -1 || diff > 1 {
		t.Fatalf("rod usage should balance: cool1=%d cool2=%d", cool1, cool2)
	}
}

func TestRunMTMatchesSemantics(t *testing.T) {
	sys, err := models.Philosophers(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMT(sys, MTOptions{MaxSteps: 200})
	if err != nil {
		t.Fatalf("RunMT: %v", err)
	}
	if res.Steps == 0 {
		t.Fatal("no steps committed")
	}
	// Correctness witness: the committed linearization replays through
	// the reference semantics.
	if _, err := Replay(sys, res.Moves); err != nil {
		t.Fatalf("committed order is not a legal interleaving: %v", err)
	}
}

func TestRunMTDataTransfer(t *testing.T) {
	sys, err := models.ProducerConsumer(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMT(sys, MTOptions{MaxSteps: 100})
	if err != nil {
		t.Fatalf("RunMT: %v", err)
	}
	final, err := Replay(sys, res.Moves)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Conservation: produced = consumed + in-buffer.
	prod, _ := final.Vars[sys.AtomIndex("producer")].Get("produced")
	cons, _ := final.Vars[sys.AtomIndex("consumer")].Get("consumed")
	cnt, _ := final.Vars[sys.AtomIndex("buffer")].Get("count")
	p, _ := prod.Int()
	c, _ := cons.Int()
	k, _ := cnt.Int()
	if p != c+k {
		t.Fatalf("conservation violated: produced=%d consumed=%d buffered=%d", p, c, k)
	}
}

func TestRunMTDeadlockStops(t *testing.T) {
	oneShot := behavior.NewBuilder("x").
		Location("s", "t").Port("p").Transition("s", "p", "t").MustBuild()
	sys := core.NewSystem("stopper").
		AddAs("a", oneShot).
		AddAs("b", oneShot).
		Connect("step", core.P("a", "p"), core.P("b", "p")).
		MustBuild()
	res, err := RunMT(sys, MTOptions{})
	if err != nil {
		t.Fatalf("RunMT: %v", err)
	}
	if !res.Deadlocked || res.Steps != 1 {
		t.Fatalf("steps=%d deadlocked=%v, want 1 then deadlock", res.Steps, res.Deadlocked)
	}
}

func TestRunMTConcurrentBatches(t *testing.T) {
	// Two independent ping pairs: each round commits both interactions.
	ping := behavior.NewBuilder("ping").
		Location("a", "b").
		Port("hit").Port("back").
		Transition("a", "hit", "b").
		Transition("b", "back", "a").
		MustBuild()
	sys := core.NewSystem("pairs").
		AddAs("l1", ping).AddAs("r1", ping).
		AddAs("l2", ping).AddAs("r2", ping).
		Connect("hit1", core.P("l1", "hit"), core.P("r1", "hit")).
		Connect("back1", core.P("l1", "back"), core.P("r1", "back")).
		Connect("hit2", core.P("l2", "hit"), core.P("r2", "hit")).
		Connect("back2", core.P("l2", "back"), core.P("r2", "back")).
		MustBuild()
	res, err := RunMT(sys, MTOptions{MaxSteps: 40})
	if err != nil {
		t.Fatalf("RunMT: %v", err)
	}
	if _, err := Replay(sys, res.Moves); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Both pairs progress: count hits on each.
	h1, h2 := 0, 0
	for _, l := range res.Labels {
		switch l {
		case "hit1":
			h1++
		case "hit2":
			h2++
		}
	}
	if h1 == 0 || h2 == 0 {
		t.Fatalf("both pairs should progress: hit1=%d hit2=%d", h1, h2)
	}
}

// prioSystem is one atom with two always-enabled singletons under the
// rule a.lo < a.hi: a.lo must never fire.
func prioSystem() *core.System {
	a := behavior.NewBuilder("a").
		Location("s").
		Port("lo").Port("hi").
		Transition("s", "lo", "s").
		Transition("s", "hi", "s").
		MustBuild()
	return core.NewSystem("prio").
		Add(a).
		Singleton("a", "lo").
		Singleton("a", "hi").
		Priority("a.lo", "a.hi").
		MustBuild()
}

func TestRunMTHonoursPriorities(t *testing.T) {
	sys := prioSystem()
	res, err := RunMT(sys, MTOptions{MaxSteps: 20})
	if err != nil {
		t.Fatalf("RunMT: %v", err)
	}
	for _, l := range res.Labels {
		if l == "a.lo" {
			t.Fatal("dominated interaction fired under the MT engine")
		}
	}
}

// TestReplayHonoursPriorities pins that the MT engine's correctness
// witness replays the prioritized semantics: a dominated move is
// rejected although it is enabled before priorities apply, while the
// engine's own run and the dominating move replay.
func TestReplayHonoursPriorities(t *testing.T) {
	sys := prioSystem()
	lo := core.Move{Interaction: sys.InteractionIndex("a.lo"), Choices: []int{0}}
	if _, err := Replay(sys, []core.Move{lo}); err == nil {
		t.Fatal("replay accepted a.lo, which a.lo < a.hi suppresses")
	}
	hi := core.Move{Interaction: sys.InteractionIndex("a.hi"), Choices: []int{1}}
	if _, err := Replay(sys, []core.Move{hi, hi}); err != nil {
		t.Fatalf("replay rejected a.hi: %v", err)
	}
	res, err := RunMT(sys, MTOptions{MaxSteps: 20})
	if err != nil {
		t.Fatalf("RunMT: %v", err)
	}
	if _, err := Replay(sys, res.Moves); err != nil {
		t.Fatalf("replay rejected the MT run: %v", err)
	}
}

func TestReplayRejectsIllegalSequence(t *testing.T) {
	sys, err := models.TokenRing(3)
	if err != nil {
		t.Fatal(err)
	}
	// pass1 is not enabled initially (token at station 0).
	illegal := []core.Move{{Interaction: sys.InteractionIndex("pass1"), Choices: []int{0, 0}}}
	if _, err := Replay(sys, illegal); err == nil {
		t.Fatal("replay must reject a move that was not enabled")
	}
}
