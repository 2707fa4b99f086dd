// Package engine provides BIP run-times: a single-threaded engine that
// executes the operational semantics directly, and a multi-threaded
// engine where each atomic component runs in its own goroutine and a
// coordinator executes sets of non-conflicting interactions concurrently.
// These mirror the two engines of the BIP toolset (§5.6, Fig. 5.7):
// components never communicate directly, only through the engine.
package engine

import (
	"errors"
	"fmt"
	"math/rand"

	"bip/internal/core"
)

// Scheduler chooses among the enabled moves of a step.
type Scheduler interface {
	// Pick returns the index of the chosen move within moves (non-empty).
	Pick(sys *core.System, st core.State, moves []core.Move) int
}

// FirstScheduler deterministically picks the first enabled move, which is
// the lowest-numbered interaction in declaration order.
type FirstScheduler struct{}

var _ Scheduler = FirstScheduler{}

// Pick implements Scheduler.
func (FirstScheduler) Pick(_ *core.System, _ core.State, _ []core.Move) int { return 0 }

// RandomScheduler picks uniformly with a seeded source, making runs
// reproducible.
type RandomScheduler struct {
	rng *rand.Rand
}

var _ Scheduler = (*RandomScheduler)(nil)

// NewRandomScheduler returns a seeded random scheduler.
func NewRandomScheduler(seed int64) *RandomScheduler {
	return &RandomScheduler{rng: rand.New(rand.NewSource(seed))}
}

// Pick implements Scheduler.
func (r *RandomScheduler) Pick(_ *core.System, _ core.State, moves []core.Move) int {
	return r.rng.Intn(len(moves))
}

// Options configures a run.
type Options struct {
	// MaxSteps bounds the run; 0 means the default of 10_000.
	MaxSteps int
	// Scheduler resolves non-determinism; nil means FirstScheduler.
	Scheduler Scheduler
	// OnStep, when non-nil, observes each executed step.
	OnStep func(step int, label string, st core.State)
	// CheckInvariants verifies component invariants after every step and
	// aborts the run on violation.
	CheckInvariants bool
}

// Result reports a finished run.
type Result struct {
	Steps      int
	Deadlocked bool
	Labels     []string
	Final      core.State
}

// ErrInvariantViolated is wrapped by run errors caused by a component
// invariant failing at runtime.
var ErrInvariantViolated = errors.New("invariant violated")

// Run executes sys with the single-threaded engine until deadlock or the
// step bound. It walks with core's exploration machinery (an
// ExploreCtx): each state carries its move table, and after a fired move
// only the interactions incident to its participants are re-examined
// (TableDeriver.DeriveSlab) on a successor that ScratchExec builds
// copy-on-write, running only the participants. States are immutable
// once built, so the states handed to Scheduler.Pick and OnStep may be
// retained as they are.
func Run(sys *core.System, opts Options) (*Result, error) {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 10_000
	}
	sched := opts.Scheduler
	if sched == nil {
		sched = FirstScheduler{}
	}
	var inv *core.InvariantChecker
	if opts.CheckInvariants {
		inv = sys.NewInvariantChecker()
	}
	ctx := sys.NewExploreCtx()
	st := sys.Initial()
	var vec [][]core.Move // st's move table
	var last core.Move    // the move that reached st
	res := &Result{}
	for res.Steps < maxSteps {
		var err error
		if res.Steps == 0 {
			vec, err = sys.EnabledVector(st)
		} else {
			vec, err = ctx.Deriver.DeriveSlab(vec, last, st, ctx.Slab)
		}
		if err == nil {
			ctx.Moves, err = ctx.Deriver.Enabled(vec, st, ctx.Moves[:0])
		}
		if err != nil {
			return nil, fmt.Errorf("engine: step %d: %w", res.Steps, err)
		}
		if len(ctx.Moves) == 0 {
			res.Deadlocked = true
			break
		}
		m := ctx.Moves[sched.Pick(sys, st, ctx.Moves)]
		ctx.Scratch.Load(st)
		if _, err := ctx.Scratch.Step(m); err != nil {
			return nil, fmt.Errorf("engine: step %d: %w", res.Steps, err)
		}
		st, last = ctx.Scratch.MaterializeSlab(ctx.Slab), m
		if opts.CheckInvariants {
			if err := inv.Check(st); err != nil {
				return nil, fmt.Errorf("engine: step %d: %w: %v", res.Steps, ErrInvariantViolated, err)
			}
		}
		label := sys.Label(m)
		res.Labels = append(res.Labels, label)
		res.Steps++
		if opts.OnStep != nil {
			opts.OnStep(res.Steps, label, st)
		}
	}
	res.Final = st
	return res, nil
}

// Replay re-executes a recorded move sequence through the reference
// semantics (System.Enabled, System.Exec), verifying that each move was
// allowed when fired, priorities included. It is used to validate that
// the multi-threaded engine's committed order is a legal interleaving
// (its correctness witness): the engine's rounds are quiescent — every
// component has offered before the coordinator picks — so each of its
// moves must be maximal under the priority rules at its state.
func Replay(sys *core.System, movesSeq []core.Move) (core.State, error) {
	st := sys.Initial()
	for i, m := range movesSeq {
		enabled, err := sys.Enabled(st)
		if err != nil {
			return core.State{}, fmt.Errorf("replay step %d: %w", i, err)
		}
		found := false
		for _, e := range enabled {
			if e.Interaction == m.Interaction && equalChoices(e.Choices, m.Choices) {
				found = true
				break
			}
		}
		if !found {
			return core.State{}, fmt.Errorf("replay step %d: move %s was not enabled", i, sys.Label(m))
		}
		if st, err = sys.Exec(st, m); err != nil {
			return core.State{}, fmt.Errorf("replay step %d: %w", i, err)
		}
	}
	return st, nil
}

func equalChoices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
