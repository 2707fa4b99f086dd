package lts

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"bip/internal/core"
	"bip/models"
)

// TestProgressCallbackAllDrivers pins the Options.Progress contract on
// both frontiers: with a tiny interval the callback fires at least once
// on a non-trivial space, snapshots are monotonic in States and
// Transitions, and the final Stats dominates the last snapshot. The
// fifo-det-4w case asks for four workers under Deterministic order,
// which routes to the one-worker FIFO. On the deques the callback runs
// on whichever worker finishes an expansion, so the collector locks —
// which also makes this a race test under -race.
func TestProgressCallbackAllDrivers(t *testing.T) {
	sys, err := models.CounterGrid(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"fifo", Options{}},
		{"fifo-det-4w", Options{Workers: 4}},
		{"deques-4w", Options{Workers: 4, Order: Unordered}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var mu sync.Mutex
			var snaps []Stats
			c.opts.ProgressEvery = time.Nanosecond
			c.opts.Progress = func(s Stats) {
				mu.Lock()
				snaps = append(snaps, s)
				mu.Unlock()
			}
			stats, err := Stream(sys, c.opts, noopSink{})
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(snaps) == 0 {
				t.Fatalf("no progress callback on a %d-state space", stats.States)
			}
			prev := Stats{}
			for i, s := range snaps {
				if s.States < prev.States || s.Transitions < prev.Transitions {
					t.Fatalf("snapshot %d regressed: %d/%d after %d/%d states/transitions",
						i, s.States, s.Transitions, prev.States, prev.Transitions)
				}
				prev = s
			}
			if last := snaps[len(snaps)-1]; last.States > stats.States || last.Transitions > stats.Transitions {
				t.Fatalf("last snapshot %d/%d exceeds final stats %d/%d",
					last.States, last.Transitions, stats.States, stats.Transitions)
			}
		})
	}
}

// TestProgressNotCalledWhenUnset pins that an exploration without a
// callback runs no progress machinery: a nil Progress with an interval
// set is simply never called, and the only goroutines alive during the
// run are the workers themselves — none on the FIFO, which runs on the
// calling goroutine, and Workers-1 on the deques.
func TestProgressNotCalledWhenUnset(t *testing.T) {
	sys, err := models.CounterGrid(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		opts  Options
		extra int
	}{
		{"fifo", Options{}, 0},
		{"deques-4w", Options{Workers: 4, Order: Unordered}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.opts.ProgressEvery = time.Nanosecond
			before := runtime.NumGoroutine()
			sink := &goroutineSink{}
			if _, err := Stream(sys, c.opts, sink); err != nil {
				t.Fatal(err)
			}
			if sink.peak > before+c.extra {
				t.Fatalf("%d goroutines during the run, %d before: want at most %d extra",
					sink.peak, before, c.extra)
			}
		})
	}
}

// goroutineSink records the largest goroutine count seen at any event.
type goroutineSink struct{ peak int }

func (g *goroutineSink) see() error {
	g.peak = max(g.peak, runtime.NumGoroutine())
	return nil
}
func (g *goroutineSink) OnState(int, core.State, Discovery) error { return g.see() }
func (g *goroutineSink) OnEdge(int, int, string) error            { return g.see() }
func (g *goroutineSink) OnExpanded(int, int) error                { return g.see() }
func (g *goroutineSink) Done(bool) error                          { return g.see() }
