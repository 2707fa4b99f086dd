package lts

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"bip/internal/core"
	"bip/internal/faultfs"
	"bip/models"
)

// These tests pin the spill layer's failure contract with injected
// disk faults (faultfs.Hooks): an injected CreateTemp/WriteAt/ReadAt
// failure must surface as the run's clean terminal error — never a
// panic or a hang — and the spill temp file must be closed and removed
// on EVERY exit path: natural completion, sink error, early ErrStop,
// and context cancellation. A hang fails the package through go test's
// -timeout, which dumps every goroutine.

// spillGrid is the shared workload: 4^5 = 1024 states whose frontier
// dwarfs the 4-entry budget, so chunks spill (and reload) continuously.
func spillGrid(t *testing.T) *core.System {
	t.Helper()
	sys, err := models.CounterGrid(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// requireHygiene asserts every file the run created through the hooks
// was closed and removed.
func requireHygiene(t *testing.T, name string, h *faultfs.Hooks) {
	t.Helper()
	if live := h.Live(); live != 0 {
		t.Fatalf("%s: %d spill file(s) left open", name, live)
	}
	removed := make(map[string]bool)
	for _, f := range h.Removed() {
		removed[f] = true
	}
	for _, f := range h.Created() {
		if !removed[f] {
			t.Fatalf("%s: spill file %s created but never removed", name, f)
		}
	}
}

// TestSpillFaultSurfacesCleanly injects the first WriteAt, the first
// ReadAt, and the CreateTemp failure into runs at workers 1/4/8 in
// both orders. Only the unordered runs have a spill layer to fault
// (MemBudget is documented as ignored under the deterministic order),
// so those must fail with the spill error as the run's first terminal error;
// every other configuration must complete untouched. No configuration
// may panic, hang, or leak the temp file.
func TestSpillFaultSurfacesCleanly(t *testing.T) {
	sys := spillGrid(t)
	injected := errors.New("injected disk fault")
	faults := []struct {
		kind    string
		install func(h *faultfs.Hooks)
	}{
		{"createtemp", func(h *faultfs.Hooks) {
			h.OnCreateTemp = func(string) error { return injected }
		}},
		{"writeat", func(h *faultfs.Hooks) {
			fail := faultfs.FailNth(1, injected)
			h.OnWriteAt = func(string, int64, int) error { return fail() }
		}},
		{"readat", func(h *faultfs.Hooks) {
			fail := faultfs.FailNth(1, injected)
			h.OnReadAt = func(string, int64, int) error { return fail() }
		}},
	}
	for _, fault := range faults {
		for _, w := range []int{1, 4, 8} {
			for _, order := range []Order{Deterministic, Unordered} {
				name := fmt.Sprintf("%s/workers=%d/order=%v", fault.kind, w, order)
				h := &faultfs.Hooks{}
				fault.install(h)
				opts := Options{
					Workers:   w,
					Order:     order,
					MemBudget: 4 * frontierEntryBytes(sys),
					FS:        h,
				}
				l, err := Explore(sys, opts)
				spills := order == Unordered
				if spills {
					if err == nil || !errors.Is(err, injected) {
						t.Fatalf("%s: injected fault did not surface: err = %v", name, err)
					}
					// The wrap names the failing layer, so a Report carrying
					// this error tells the operator what actually broke.
					if s := err.Error(); !strings.Contains(s, "frontier spill") {
						t.Fatalf("%s: error %q does not name the spill layer", name, s)
					}
				} else {
					if err != nil {
						t.Fatalf("%s: non-spilling run tripped a spill fault: %v", name, err)
					}
					if got, want := l.NumStates(), 4*4*4*4*4; got != want {
						t.Fatalf("%s: %d states, want %d", name, got, want)
					}
					if created := h.Created(); len(created) != 0 {
						t.Fatalf("%s: non-spilling run touched the spill filesystem: %v", name, created)
					}
				}
				requireHygiene(t, name, h)
			}
		}
	}
}

// faultTripSink counts OnState events and returns its configured
// result — ErrStop, a real error, or a context cancellation side
// effect — once the threshold is reached.
type faultTripSink struct {
	n      int
	after  int
	result error
	onTrip func()
}

func (s *faultTripSink) OnState(int, core.State, Discovery) error {
	s.n++
	if s.n == s.after {
		if s.onTrip != nil {
			s.onTrip()
		}
		return s.result
	}
	return nil
}
func (s *faultTripSink) OnEdge(int, int, string) error { return nil }
func (s *faultTripSink) OnExpanded(int, int) error     { return nil }
func (s *faultTripSink) Done(bool) error               { return nil }

// TestSpillHygieneOnEveryExitPath drives the spilling work-stealing
// run through its four exits — natural completion, early ErrStop, sink
// error, and context cancellation — and asserts the spill temp file is
// closed and removed after each. The completion run additionally pins
// that chunks really round-tripped, so the hygiene claims are not
// vacuous.
func TestSpillHygieneOnEveryExitPath(t *testing.T) {
	sys := spillGrid(t)
	budget := 4 * frontierEntryBytes(sys)

	t.Run("completion", func(t *testing.T) {
		h := &faultfs.Hooks{}
		stats, err := Stream(sys, Options{Workers: 4, Order: Unordered, MemBudget: budget, FS: h},
			&faultTripSink{after: -1})
		if err != nil {
			t.Fatal(err)
		}
		if stats.SpilledChunks == 0 {
			t.Fatal("4-entry budget spilled nothing; the hygiene assertions below would be vacuous")
		}
		if len(h.Created()) == 0 {
			t.Fatal("spilled chunks but no file created through the hooks")
		}
		requireHygiene(t, "completion", h)
	})

	t.Run("errstop", func(t *testing.T) {
		h := &faultfs.Hooks{}
		sink := &faultTripSink{after: 600, result: ErrStop}
		stats, err := Stream(sys, Options{Workers: 4, Order: Unordered, MemBudget: budget, FS: h}, sink)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Stopped {
			t.Fatal("ErrStop did not stop the run")
		}
		if len(h.Created()) == 0 {
			t.Fatal("run stopped before any spill; raise the stop threshold")
		}
		requireHygiene(t, "errstop", h)
	})

	t.Run("sink-error", func(t *testing.T) {
		h := &faultfs.Hooks{}
		boom := errors.New("sink exploded")
		sink := &faultTripSink{after: 600, result: boom}
		_, err := Stream(sys, Options{Workers: 4, Order: Unordered, MemBudget: budget, FS: h}, sink)
		if !errors.Is(err, boom) {
			t.Fatalf("sink error not surfaced: %v", err)
		}
		requireHygiene(t, "sink-error", h)
	})

	t.Run("cancellation", func(t *testing.T) {
		h := &faultfs.Hooks{}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sink := &faultTripSink{after: 600, onTrip: cancel}
		_, err := Stream(sys, Options{
			Workers: 4, Order: Unordered, MemBudget: budget, FS: h, Ctx: ctx,
		}, sink)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancellation not surfaced: %v", err)
		}
		requireHygiene(t, "cancellation", h)
	})
}
