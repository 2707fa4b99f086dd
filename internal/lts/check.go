package lts

import (
	"errors"

	"bip/internal/core"
)

// This file implements the on-the-fly property checkers: composable
// Sinks that verify a property while the state space is being explored,
// early-exit (ErrStop) on the first violation, and report the same
// verdicts — state ids and counterexample paths included — as the
// corresponding analyses on the materialized LTS, which the differential
// tests in stream_test.go pin at several worker counts.
//
// Checkers retain no states: a counterexample path is captured from the
// Discovery handle of the violating state (the run's id-indexed BFS
// tree), never from a stored state table.

// Verdict is the outcome block shared by the on-the-fly checkers; each
// checker embeds it, so the fields read the same on all of them.
type Verdict struct {
	// Found reports a definite hit — a deadlock, a violating state, a
	// reached target; State and Path locate it.
	Found bool
	State int
	Path  []string
	// Exhaustive reports that the full state space was covered, making
	// the absence of a hit conclusive. It stays false after an early
	// stop or a truncated exploration.
	Exhaustive bool
}

// settle records the hit and stops the exploration.
func (v *Verdict) settle(id int, d Discovery) error {
	v.Found = true
	v.State = id
	v.Path = d.Path()
	return ErrStop
}

// Done implements the Sink finalization shared by the checkers.
func (v *Verdict) Done(truncated bool) error {
	v.Exhaustive = !truncated
	return nil
}

// DeadlockCheck detects reachable deadlocks on the fly. A state is a
// deadlock when it has no enabled move; the check uses OnExpanded's move
// count, so the verdict is exact even when the MaxStates bound truncated
// the edge stream. The first deadlock in exploration order is reported —
// the same state Deadlocks() lists first on the materialized LTS. Its
// path is read from the run's BFS tree, whose handle the check takes
// from the initial state's Discovery, so it keeps nothing per state on
// either stream order.
type DeadlockCheck struct {
	Verdict

	tree *bfsTree
}

var _ Sink = (*DeadlockCheck)(nil)

// OnState implements Sink: it keeps the handle on the run's BFS tree.
func (c *DeadlockCheck) OnState(_ int, _ core.State, d Discovery) error {
	if c.tree == nil {
		c.tree = d.tree
	}
	return nil
}

// OnEdge implements Sink.
func (c *DeadlockCheck) OnEdge(int, int, string) error { return nil }

// OnExpanded implements Sink: a state expanded with zero moves is a
// deadlock.
func (c *DeadlockCheck) OnExpanded(id, moves int) error {
	if moves != 0 {
		return nil
	}
	d := Discovery{Parent: -1} // a hand-fed stream has no tree to read
	if c.tree != nil {
		d = c.tree.discovery(int32(id))
	}
	return c.settle(id, d)
}

// InvariantCheck verifies that Pred holds on every reachable state,
// reporting the first violating state in exploration order with its
// counterexample path — the verdict CheckInvariant computes on the
// materialized LTS.
type InvariantCheck struct {
	// Pred is the state predicate that must hold everywhere.
	Pred func(core.State) bool

	Verdict
}

var _ Sink = (*InvariantCheck)(nil)

// OnState implements Sink.
func (c *InvariantCheck) OnState(id int, st core.State, d Discovery) error {
	if !c.Pred(st) {
		return c.settle(id, d)
	}
	return nil
}

// OnEdge implements Sink.
func (c *InvariantCheck) OnEdge(int, int, string) error { return nil }

// OnExpanded implements Sink.
func (c *InvariantCheck) OnExpanded(int, int) error { return nil }

// ReachCheck searches for a state satisfying Pred (a bad-state or target
// query), reporting the first hit in exploration order with its witness
// path — the verdict FindState+PathTo compute on the materialized LTS.
// With Found false and Exhaustive true the target is proved unreachable.
type ReachCheck struct {
	// Pred is the target predicate.
	Pred func(core.State) bool

	Verdict
}

var _ Sink = (*ReachCheck)(nil)

// OnState implements Sink.
func (c *ReachCheck) OnState(id int, st core.State, d Discovery) error {
	if c.Pred(st) {
		return c.settle(id, d)
	}
	return nil
}

// OnEdge implements Sink.
func (c *ReachCheck) OnEdge(int, int, string) error { return nil }

// OnExpanded implements Sink.
func (c *ReachCheck) OnExpanded(int, int) error { return nil }

// Multi fans the event stream out to several sinks so one exploration
// answers many queries. A child returning ErrStop is retired (its
// verdict is settled) while the others keep consuming; Multi itself
// stops the exploration once every child has retired. Any other child
// error aborts immediately.
type Multi struct {
	sinks   []Sink
	stopped []bool
	active  int
}

var _ Sink = (*Multi)(nil)

// NewMulti combines sinks into one.
func NewMulti(sinks ...Sink) *Multi {
	return &Multi{
		sinks:   sinks,
		stopped: make([]bool, len(sinks)),
		active:  len(sinks),
	}
}

// OnState implements Sink.
func (m *Multi) OnState(id int, st core.State, d Discovery) error {
	if m.active == 0 {
		return ErrStop
	}
	for i, s := range m.sinks {
		if m.stopped[i] {
			continue
		}
		if err := s.OnState(id, st, d); err != nil {
			if err := m.retire(i, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// OnEdge implements Sink.
func (m *Multi) OnEdge(from, to int, label string) error {
	if m.active == 0 {
		return ErrStop
	}
	for i, s := range m.sinks {
		if m.stopped[i] {
			continue
		}
		if err := s.OnEdge(from, to, label); err != nil {
			if err := m.retire(i, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// OnExpanded implements Sink.
func (m *Multi) OnExpanded(id, moves int) error {
	if m.active == 0 {
		return ErrStop
	}
	for i, s := range m.sinks {
		if m.stopped[i] {
			continue
		}
		if err := s.OnExpanded(id, moves); err != nil {
			if err := m.retire(i, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// retire handles child i's error: ErrStop retires the child, and ends
// the run (ErrStop) once no child is active; any other error aborts.
func (m *Multi) retire(i int, err error) error {
	if !errors.Is(err, ErrStop) {
		return err
	}
	m.stopped[i] = true
	m.active--
	if m.active == 0 {
		return ErrStop
	}
	return nil
}

// Done implements Sink: it is delivered to the children that ran to the
// end (retired children settled their verdicts when they stopped).
func (m *Multi) Done(truncated bool) error {
	for i, s := range m.sinks {
		if m.stopped[i] {
			continue
		}
		if err := s.Done(truncated); err != nil && !errors.Is(err, ErrStop) {
			return err
		}
	}
	return nil
}
