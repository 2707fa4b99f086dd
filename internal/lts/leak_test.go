package lts

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"bip/internal/faultfs"
)

// TestStreamNoGoroutineLeak runs both frontiers through every way a
// Stream call can end — exhaustion, a sink's ErrStop, MaxStates
// truncation, context cancellation, a sink error, and an injected spill
// fault — and asserts that no goroutine outlives the call: the count
// returns to its pre-call value within a short settle loop. Every run
// installs a context and a fast Progress callback, so the cancellation
// poll and the progress meter are live on each exit path too.
func TestStreamNoGoroutineLeak(t *testing.T) {
	sys := spillGrid(t)
	const states = 4 * 4 * 4 * 4 * 4
	injected := errors.New("injected disk fault")
	boom := errors.New("sink exploded")

	type run struct {
		opts   Options
		sink   *faultTripSink
		hooks  *faultfs.Hooks
		cancel context.CancelFunc
	}
	exits := []struct {
		name string
		// arm configures the run for this exit.
		arm func(r *run)
		// check judges the outcome; spills reports whether the driver
		// under test has a spill layer to fault.
		check func(stats Stats, err error, spills bool) error
	}{
		{"exhausted", func(r *run) {},
			func(s Stats, err error, _ bool) error {
				if err != nil || s.Stopped || s.Truncated || s.States != states {
					return fmt.Errorf("err=%v stopped=%v truncated=%v states=%d, want a full %d-state run",
						err, s.Stopped, s.Truncated, s.States, states)
				}
				return nil
			}},
		{"errstop", func(r *run) { r.sink.after, r.sink.result = 300, ErrStop },
			func(s Stats, err error, _ bool) error {
				if err != nil || !s.Stopped {
					return fmt.Errorf("err=%v stopped=%v, want a clean stop", err, s.Stopped)
				}
				return nil
			}},
		{"maxstates", func(r *run) { r.opts.MaxStates = 300 },
			func(s Stats, err error, _ bool) error {
				if err != nil || !s.Truncated || s.States != 300 {
					return fmt.Errorf("err=%v truncated=%v states=%d, want a 300-state truncation",
						err, s.Truncated, s.States)
				}
				return nil
			}},
		{"ctx-cancel", func(r *run) { r.sink.after, r.sink.onTrip = 300, r.cancel },
			func(_ Stats, err error, _ bool) error {
				if !errors.Is(err, context.Canceled) {
					return fmt.Errorf("err=%v, want context.Canceled", err)
				}
				return nil
			}},
		{"sink-error", func(r *run) { r.sink.after, r.sink.result = 300, boom },
			func(_ Stats, err error, _ bool) error {
				if !errors.Is(err, boom) {
					return fmt.Errorf("err=%v, want the sink's error", err)
				}
				return nil
			}},
		{"spill-fault", func(r *run) {
			r.opts.MemBudget = 4 * frontierEntryBytes(sys)
			fail := faultfs.FailNth(1, injected)
			r.hooks.OnWriteAt = func(string, int64, int) error { return fail() }
		},
			func(s Stats, err error, spills bool) error {
				if spills && !errors.Is(err, injected) {
					return fmt.Errorf("err=%v, want the injected spill fault", err)
				}
				if !spills && (err != nil || s.States != states) {
					return fmt.Errorf("err=%v states=%d, want a full run without a spill layer", err, s.States)
				}
				return nil
			}},
	}
	drivers := []struct {
		name string
		opts Options
	}{
		{"sequential", Options{}},
		{"work-steal-4w", Options{Workers: 4, Order: Unordered}},
	}
	for _, d := range drivers {
		for _, x := range exits {
			t.Run(d.name+"/"+x.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				r := &run{opts: d.opts, sink: &faultTripSink{after: -1}, hooks: &faultfs.Hooks{}, cancel: cancel}
				r.opts.Ctx = ctx
				r.opts.FS = r.hooks
				r.opts.Progress = func(Stats) {}
				r.opts.ProgressEvery = time.Millisecond
				x.arm(r)

				before := runtime.NumGoroutine()
				stats, err := Stream(sys, r.opts, r.sink)
				if cerr := x.check(stats, err, d.opts.Order == Unordered); cerr != nil {
					t.Fatal(cerr)
				}
				requireSettled(t, before)
				requireHygiene(t, x.name, r.hooks)
			})
		}
	}
}

// requireSettled waits briefly for the goroutine count to fall back to
// before, failing with a full goroutine dump if it does not.
func requireSettled(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines after the run, %d before:\n%s", runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}
