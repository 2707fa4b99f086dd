package bench

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"bip/internal/core"
	"bip/internal/lts"
	"bip/models"
)

// E18WorkStealing measures exploration on the work-stealing deques
// (Options.Order = Unordered) against the one-worker FIFO frontier —
// the same loop, and what every Deterministic exploration runs — on
// three workload shapes:
//
//   - rings: wide BFS levels (the E1 philosopher-rings family) — plenty
//     of independent work per level.
//   - pairs: wide and data-carrying (the E8-class pair grid) — adds
//     per-state variable-store copying to the expansion cost.
//   - deep-chain: narrow and deep (models.DeepChain) — BFS levels
//     smaller than the worker pool, where only a barrier-free frontier
//     can keep the workers busy.
//
// Each row re-checks the stream contract cheaply: the unordered run
// must match the one-worker fingerprint — same state, transition and
// deadlock counts, same truncation — with scheduling-free numbering
// (the wsteal differential tests pin set-level equality and verdicts).
// Speedup is against the one-worker run and is bounded by
// GOMAXPROCS; EXPERIMENTS.md records a reference run and the CI quick
// sweep asserts the multi-core floor when enough CPUs are present.
func E18WorkStealing(workerCounts []int, deepDepth int64) (*Table, error) {
	t := &Table{
		ID:      "E18",
		Title:   "work-stealing vs sequential exploration (Options.Order = Unordered)",
		Headers: []string{"system", "states", "workers", "order", "time", "speedup", "contract"},
	}
	rings, err := models.PhilosopherRings(5, 4)
	if err != nil {
		return nil, err
	}
	ctl, err := models.ControlOnly(rings)
	if err != nil {
		return nil, err
	}
	pairs, err := PairsGrid(5)
	if err != nil {
		return nil, err
	}
	deep, err := models.DeepChain(deepDepth)
	if err != nil {
		return nil, err
	}
	for _, sys := range []*core.System{ctl, pairs, deep} {
		t0 := time.Now()
		seq, err := lts.Explore(sys, lts.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		seqTime := time.Since(t0)
		t.Rows = append(t.Rows, []string{
			sys.Name, strconv.Itoa(seq.NumStates()), "1", "-", ms(seqTime), "1.00x", "reference",
		})
		for _, w := range workerCounts {
			if w <= 1 {
				continue
			}
			t1 := time.Now()
			par, err := lts.Explore(sys, lts.Options{Workers: w, Order: lts.Unordered})
			if err != nil {
				return nil, err
			}
			parTime := time.Since(t1)
			same := par.NumStates() == seq.NumStates() &&
				par.NumTransitions() == seq.NumTransitions() &&
				par.Truncated() == seq.Truncated() &&
				len(par.Deadlocks()) == len(seq.Deadlocks())
			t.Rows = append(t.Rows, []string{
				sys.Name, strconv.Itoa(par.NumStates()), strconv.Itoa(w), "fast",
				ms(parTime), fmt.Sprintf("%.2fx", float64(seqTime)/float64(parTime)),
				strconv.FormatBool(same),
			})
		}
	}
	t.Notes = append(t.Notes,
		"workers=1 is the one-worker FIFO frontier (what order=det runs at any worker count); order=fast runs the same loop on barrier-free work-stealing deques",
		"contract column: state/transition/deadlock counts and truncation equal to the sequential run (set-level equality pinned by internal/lts/wsteal_test.go)",
		fmt.Sprintf("speedup ceiling bounded by GOMAXPROCS=%d on this machine", runtime.GOMAXPROCS(0)))
	return t, nil
}

// E18Speedup runs the quick E18 sweep and returns the unordered
// speedup at `workers` workers on the named workload — the number the
// CI gate (TestE18SpeedupMultiCore) asserts against on multi-core
// hosts. Exposed so the assertion and the table cannot drift apart.
func E18Speedup(sys *core.System, workers int) (float64, error) {
	t0 := time.Now()
	seq, err := lts.Explore(sys, lts.Options{Workers: 1})
	if err != nil {
		return 0, err
	}
	seqTime := time.Since(t0)
	t1 := time.Now()
	par, err := lts.Explore(sys, lts.Options{Workers: workers, Order: lts.Unordered})
	if err != nil {
		return 0, err
	}
	parTime := time.Since(t1)
	if par.NumStates() != seq.NumStates() || par.NumTransitions() != seq.NumTransitions() {
		return 0, fmt.Errorf("bench: unordered exploration diverged: (%d,%d) vs (%d,%d)",
			par.NumStates(), par.NumTransitions(), seq.NumStates(), seq.NumTransitions())
	}
	return float64(seqTime) / float64(parTime), nil
}
