package lts

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"bip/internal/core"
	"bip/models"
)

// These tests pin the pluggable seen-set layer's contract: swapping
// Options.Seen must never change what an exploration computes — state
// set, edge multiset, deadlock set, truncation flag, checker verdicts
// and the validity of every reported counterexample — only how much
// memory the visited-state record costs. The same differential runs
// three ways: compact at full discriminator width (the production
// configuration), compact with an 8-bit discriminator (collision
// injection: the exact-promotion tier must absorb constant
// discriminator collisions), and the spilled frontier under a starved
// MemBudget.

// exploreStats materializes the LTS like explore but also returns the
// run's Stats, which carry the seen-set and spill accounting.
func exploreStats(t *testing.T, sys *core.System, opts Options) (*LTS, Stats) {
	t.Helper()
	l := &LTS{sys: sys}
	stats, err := Stream(sys, opts, l)
	if err != nil {
		t.Fatalf("Stream(%s): %v", sys.Name, err)
	}
	return l, stats
}

// seenWorkerCounts are the acceptance grid of the memory PR: sequential
// plus the parallel drivers at moderate and high contention.
func seenWorkerCounts() []int { return []int{1, 4, 8} }

func TestCompactSeenCanonicalDifferential(t *testing.T) {
	for _, c := range zooCases(t) {
		ref := explore(t, c.sys, c.opts)
		for _, w := range seenWorkerCounts() {
			for _, ord := range []Order{Deterministic, Unordered} {
				name := fmt.Sprintf("%s/workers=%d/order=%v", c.name, w, ord)
				opts := c.opts
				opts.Workers = w
				opts.Order = ord
				opts.Seen = CompactSeen{}
				got, stats := exploreStats(t, c.sys, opts)
				if stats.SeenBytes <= 0 {
					t.Fatalf("%s: SeenBytes = %d, accounting is dead", name, stats.SeenBytes)
				}
				if stats.ExactPromotions != 0 {
					t.Fatalf("%s: %d promotions at full discriminator width", name, stats.ExactPromotions)
				}
				if ref.Truncated() && ord == Unordered && w > 1 {
					// The admitted SET of a truncated unordered run is
					// schedule-dependent by contract; count and flag are not.
					if got.NumStates() != ref.NumStates() || !got.Truncated() {
						t.Fatalf("%s: truncated run admitted %d states (truncated=%v), want %d",
							name, got.NumStates(), got.Truncated(), ref.NumStates())
					}
					continue
				}
				requireSameCanonical(t, name, ref, got)
			}
		}
	}
}

// TestCompactSeenVerdictsAndPaths runs the on-the-fly checkers with the
// compact seen set across the zoo, workers and both orders: verdicts
// must match the exact sequential reference and every reported
// counterexample path must replay as a real run of the semantics.
func TestCompactSeenVerdictsAndPaths(t *testing.T) {
	for _, c := range zooCases(t) {
		ref := explore(t, c.sys, c.opts)
		if ref.Truncated() {
			continue
		}
		wantDL := len(ref.Deadlocks()) > 0
		for _, w := range seenWorkerCounts() {
			for _, ord := range []Order{Deterministic, Unordered} {
				name := fmt.Sprintf("%s/workers=%d/order=%v", c.name, w, ord)
				opts := c.opts
				opts.Workers = w
				opts.Order = ord
				opts.Seen = CompactSeen{}
				dl := &DeadlockCheck{}
				if _, err := Stream(c.sys, opts, dl); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if dl.Found != wantDL {
					t.Fatalf("%s: deadlock found=%v, exact sequential says %v", name, dl.Found, wantDL)
				}
				if dl.Found {
					validateRun(t, name, c.sys, c.opts.Raw, dl.Path, func(st core.State) bool {
						ms, err := enabledOf(c.sys, st, c.opts.Raw)
						return err == nil && len(ms) == 0
					})
				} else if !dl.Exhaustive {
					t.Fatalf("%s: full exploration must be conclusive", name)
				}
			}
		}
	}
}

// TestCompactSeenCollisionInjection narrows the discriminator to 8 bits
// — with hundreds to thousands of states per model, discriminator
// collisions between distinct states are then guaranteed en masse — and
// requires (a) bit-identical exploration anyway, because the verifying
// exact-promotion tier overrules every ambiguous match, and (b) a
// nonzero promotion count somewhere, proving the injection actually
// exercised that tier rather than silently not colliding.
func TestCompactSeenCollisionInjection(t *testing.T) {
	var promotions int64
	for _, c := range zooCases(t) {
		ref := explore(t, c.sys, c.opts)
		for _, w := range []int{1, 4} {
			for _, ord := range []Order{Deterministic, Unordered} {
				name := fmt.Sprintf("%s/workers=%d/order=%v", c.name, w, ord)
				opts := c.opts
				opts.Workers = w
				opts.Order = ord
				opts.Seen = CompactSeen{RemainderBits: 8}
				got, stats := exploreStats(t, c.sys, opts)
				promotions += stats.ExactPromotions
				if ref.Truncated() && ord == Unordered && w > 1 {
					if got.NumStates() != ref.NumStates() || !got.Truncated() {
						t.Fatalf("%s: truncated run admitted %d states, want %d",
							name, got.NumStates(), ref.NumStates())
					}
					continue
				}
				requireSameCanonical(t, name, ref, got)
			}
		}
	}
	if promotions == 0 {
		t.Fatal("8-bit discriminator produced zero promotions across the zoo: the collision injection is not injecting")
	}
}

// TestSpillRoundTrip starves the work-stealing frontier: a budget of a
// handful of entries forces nearly every published chunk through the
// spill file and back, so the run only completes if spilled states
// decode to exactly what was evicted. The canonical differential then
// proves the reloaded frontier produced the same exploration.
func TestSpillRoundTrip(t *testing.T) {
	grid, err := models.CounterGrid(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	twoPhase, err := models.PhilosophersDeadlocking(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*core.System{grid, twoPhase} {
		ref := explore(t, sys, Options{})
		for _, w := range []int{2, 4, 8} {
			for _, seen := range []SeenSets{nil, CompactSeen{}} {
				name := fmt.Sprintf("%s/workers=%d/compact=%v", sys.Name, w, seen != nil)
				opts := Options{
					Workers: w,
					Order:   Unordered,
					Seen:    seen,
					// ~4 frontier entries: every full chunk publish is over
					// budget, so chunks spill and reload continuously.
					MemBudget: 4 * frontierEntryBytes(sys),
				}
				got, stats := exploreStats(t, sys, opts)
				if stats.SpilledChunks < 2 {
					t.Fatalf("%s: only %d chunks spilled under a 4-entry budget", name, stats.SpilledChunks)
				}
				if stats.PeakFrontierBytes <= 0 {
					t.Fatalf("%s: PeakFrontierBytes = %d", name, stats.PeakFrontierBytes)
				}
				requireSameCanonical(t, name, ref, got)
			}
		}
	}
}

// TestMemBudgetBoundsPeak checks the accounting side of the budget: the
// unbudgeted work-stealing run's frontier peak must shrink by an order
// of magnitude when a tight budget is imposed (exact equality is not
// promised — each worker's unpublished tail chunk and in-flight entries
// cannot be evicted).
func TestMemBudgetBoundsPeak(t *testing.T) {
	grid, err := models.CounterGrid(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	free := Options{Workers: 4, Order: Unordered}
	_, unbounded := exploreStats(t, grid, free)
	budget := unbounded.PeakFrontierBytes / 16
	bounded := free
	bounded.MemBudget = budget
	l, stats := exploreStats(t, grid, bounded)
	if want := 4 * 4 * 4 * 4 * 4 * 4; l.NumStates() != want {
		t.Fatalf("budgeted run visited %d states, want %d", l.NumStates(), want)
	}
	if stats.SpilledChunks == 0 {
		t.Fatal("budget of peak/16 spilled nothing")
	}
	if stats.PeakFrontierBytes >= unbounded.PeakFrontierBytes/2 {
		t.Fatalf("budgeted peak %d is not meaningfully below the unbudgeted %d",
			stats.PeakFrontierBytes, unbounded.PeakFrontierBytes)
	}
}

// Cancellation: both drivers must notice a fired context and return its
// error — both when it is already canceled at entry and when it fires
// mid-run — without hanging any worker. The det-parallel row asks for
// four workers under Deterministic order, which runs the sequential
// driver.
func TestContextCancellation(t *testing.T) {
	grid, err := models.CounterGrid(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	drivers := []struct {
		name string
		opts Options
	}{
		{"sequential", Options{}},
		{"det-parallel", Options{Workers: 4}},
		{"work-steal", Options{Workers: 4, Order: Unordered}},
	}
	for _, d := range drivers {
		t.Run(d.name+"/pre-canceled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			opts := d.opts
			opts.Ctx = ctx
			_, err := Stream(grid, opts, &DeadlockCheck{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled context: err = %v, want context.Canceled", err)
			}
		})
		t.Run(d.name+"/mid-run", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := d.opts
			opts.Ctx = ctx
			// Cancel from inside the sink once the run is clearly underway;
			// the 4^8-state space is far from finished at that point.
			fired := 0
			sink := &funcSink{onState: func() error {
				fired++
				if fired == 500 {
					cancel()
				}
				return nil
			}}
			_, err := Stream(grid, opts, sink)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
			}
		})
	}
}

// funcSink adapts a closure to the Sink interface for the cancellation
// tests.
type funcSink struct{ onState func() error }

func (f *funcSink) OnState(int, core.State, Discovery) error { return f.onState() }
func (f *funcSink) OnEdge(int, int, string) error            { return nil }
func (f *funcSink) OnExpanded(int, int) error                { return nil }
func (f *funcSink) Done(bool) error                          { return nil }
