package lts

import (
	"sync"
	"testing"
	"time"

	"bip/models"
)

// TestProgressCallbackAllDrivers pins the Options.Progress contract on
// every driver: with a tiny interval the callback fires at least once
// on a non-trivial space, snapshots are monotonic in States and
// Transitions, and the final Stats dominates the last snapshot. The
// work-stealing driver's callback runs on a ticker goroutine, so the
// collector locks — which also makes this a race test under -race.
func TestProgressCallbackAllDrivers(t *testing.T) {
	sys, err := models.CounterGrid(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"seq", Options{}},
		{"det-4w", Options{Workers: 4}},
		{"fast-4w", Options{Workers: 4, Order: Unordered}},
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

// TestProgressNotCalledWhenUnset pins that explorations without a
// callback never construct progress machinery (the nil meter is the
// hot-path case).
func TestProgressNotCalledWhenUnset(t *testing.T) {
	if pm := newProgressMeter(&Options{}); pm != nil {
		t.Fatal("progress meter built without a callback")
	}
	// And a nil meter's tick is a safe no-op.
	var pm *progressMeter
	pm.tick(func() Stats { t.Fatal("nil meter built a snapshot"); return Stats{} })
}
