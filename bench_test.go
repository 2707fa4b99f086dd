// This file holds the root benchmark harness: one Go benchmark per
// experiment of DESIGN.md's paper↔experiment index (E1–E23). Each
// benchmark drives the same code as `bipbench -e <id>`, so the numbers
// printed by `go test -bench` regenerate the tables of EXPERIMENTS.md.
package bip_test

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"bip"
	"bip/bench"
	"bip/internal/core"
	"bip/internal/lts"
	"bip/models"
)

func run(b *testing.B, f func() (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty experiment table")
		}
	}
}

func BenchmarkE1DFinderVsMonolithic(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E1DFinderVsMonolithic(5) })
}

func BenchmarkE2GlueExpressiveness(b *testing.B) {
	run(b, bench.E2Glue)
}

func BenchmarkE3LustreEmbedding(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E3Lustre(200) })
}

func BenchmarkE4UnitDelay(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E4UnitDelay(8) })
}

func BenchmarkE5Refinement(b *testing.B) {
	run(b, bench.E5Refinement)
}

func BenchmarkE6Stability(b *testing.B) {
	run(b, bench.E6Stability)
}

func BenchmarkE7CRP(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E7CRP([]int{4, 6}, 60) })
}

func BenchmarkE8Engines(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E8Engines([]int{1, 2, 4}, 400, 20000) })
}

func BenchmarkE9ArchCompose(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E9Arch([]int{2, 3, 4}) })
}

func BenchmarkE10TimingAnomaly(b *testing.B) {
	run(b, bench.E10Anomaly)
}

func BenchmarkE11Invariants(b *testing.B) {
	run(b, bench.E11Invariants)
}

func BenchmarkE12Incremental(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E12Incremental(6) })
}

func BenchmarkE13Flattening(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E13Flattening([]int{1, 2, 3}) })
}

func BenchmarkE14Elevator(b *testing.B) {
	run(b, bench.E14Elevator)
}

func BenchmarkE16StreamingMemory(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E16StreamingMemory(3) })
}

func BenchmarkE17PropertyCheck(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E17PropertyCheck(3) })
}

func BenchmarkE18WorkStealing(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E18WorkStealing([]int{1, 4}, 4000) })
}

func BenchmarkE19Reduction(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E19Reduction(6, 3, 3, 6) })
}

// TestE19ReductionFloor is the CI gate on the partial-order reducer's
// effectiveness: on the fully independent DiamondGrid workload the
// ample-set reduction must shrink the visited state count at least 5x
// (it collapses the 3^n interleaving lattice to nearly a chain; the
// factor grows with n, so 5x leaves generous slack at n=6). E19Factor
// also re-checks deadlock-count preservation on every run.
func TestE19ReductionFloor(t *testing.T) {
	diamond, err := models.DiamondGrid(6)
	if err != nil {
		t.Fatal(err)
	}
	factor, err := bench.E19Factor(diamond)
	if err != nil {
		t.Fatal(err)
	}
	if factor < 5 {
		t.Fatalf("diamond-6 reduction factor %.2fx, want >= 5x", factor)
	}
}

func BenchmarkE20Memory(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E20Memory(6, 4, 4, 8) })
}

func BenchmarkE21Service(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E21Service(8, 2, 4, 4) })
}

// TestE21ServiceFloor is the CI gate on the bipd service: 8 concurrent
// jobs through a 2-worker pool must all complete with the expected
// report, and a byte-identical resubmission of the whole workload must
// be answered entirely from the content-addressed report cache —
// E21Service errors out on any failed job, wrong state count, or
// round-2 cache miss, so a green run certifies the queue, the pool,
// and the cache end to end over real HTTP.
func TestE21ServiceFloor(t *testing.T) {
	tab, err := bench.E21Service(8, 2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("E21 rows = %d, want cold + cached", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "ok" {
			t.Fatalf("E21 row %v failed its contract", row)
		}
	}
}

func BenchmarkE23FaultTolerance(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E23FaultTolerance(8, 2, 4, 4, 0) })
}

// TestE23RecoveryFloor is the CI gate on bipd fault tolerance: a
// persistent server is killed (Crash — SIGKILL semantics: no terminal
// journal records) with half of an 8-job workload still in flight, and
// a restart on the same data directory must lose zero completed
// reports (pre-crash completions answered from the content-addressed
// store, never re-explored), re-verify every interrupted job to the
// exact expected state count, replay the journal within a 30s budget,
// and complete a quota-throttled burst through the retrying client
// with at least one real 429 on the wire. E23FaultTolerance errors out
// on any violation, so a green run certifies the journal, the report
// store, recovery re-queueing, and the client's backoff end to end.
func TestE23RecoveryFloor(t *testing.T) {
	tab, err := bench.E23FaultTolerance(8, 2, 4, 3, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("E23 rows = %d, want load+crash, recover, quota", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "ok" {
			t.Fatalf("E23 row %v failed its contract", row)
		}
	}
}

// BenchmarkE22Lint drives the E22 table at smoke sizes: the fully
// explorable counter grid plus the astronomical lint-only row. The
// philosophers rows are left to bipbench/TestE22LintFloor — their data
// growth hits the explorer's 2^20 truncation bound, ~8s per row, which
// would dwarf every other benchmark in the `-benchtime=1x` smoke.
func BenchmarkE22Lint(b *testing.B) {
	run(b, func() (*bench.Table, error) { return bench.E22Lint(nil, 5, 4, 12, 1<<20) })
}

// TestE22LintFloor is the CI gate on the static analyzer's cost model:
// lint must be at least 10x cheaper than exploration on philosophers-6
// (the real gap is four orders of magnitude even at the explorer's
// DefaultMaxStates truncation bound — 10x leaves generous CI-noise
// headroom), with zero warnings on the clean model (E22Ratio errors
// out on any false positive). The second half pins the stronger claim
// behind the ratio: a counter grid of (2^20)^12 states — unexplorable
// by construction — lints to completion, which is only possible
// because lint.Analyze never expands the state space.
func TestE22LintFloor(t *testing.T) {
	ratio, err := bench.E22Ratio(6)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 10 {
		t.Fatalf("explore/lint ratio %.1fx on philosophers-8, want >= 10x", ratio)
	}
	astro, err := models.CounterGrid(12, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := bip.Lint(astro)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Severity != "info" {
			t.Fatalf("false positive on the astronomical grid: %+v", d)
		}
	}
}

// TestE20MemoryFloor is the CI gate on seen-set compaction: on the
// CounterGrid workload (wide 78-byte keys, every state live) the
// compact seen set must use at least 3x fewer seen-set bytes per
// visited state than the exact default — and E20Ratio errors out if the
// compact run disagrees with the exact one on states, transitions or
// deadlock count, so the ratio cannot be bought with a wrong verdict.
// (The per-verdict/per-path differential across worker counts and both
// orders lives in internal/lts.)
func TestE20MemoryFloor(t *testing.T) {
	grid, err := models.CounterGrid(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := bench.E20Ratio(grid)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 3 {
		t.Fatalf("countergrid-6x5 seen-set compaction ratio %.2fx, want >= 3x", ratio)
	}
}

// TestE20SpillUnderMemoryLimit runs the work-stealing explorer with a
// Go runtime memory limit in force and a frontier budget far below the
// workload's unbounded peak: the exploration must still cover the full
// k^n space, and must do it by actually round-tripping frontier chunks
// through the spill file. This is the break-the-RAM-wall contract end
// to end — completing a space whose frontier exceeds the budget.
func TestE20SpillUnderMemoryLimit(t *testing.T) {
	prev := debug.SetMemoryLimit(256 << 20)
	defer debug.SetMemoryLimit(prev)
	grid, err := models.CounterGrid(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bip.Verify(grid,
		bip.Deadlock(),
		bip.Workers(4), bip.Unordered(),
		bip.CompactSeen(), bip.MemBudget(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * 5 * 5 * 5 * 5 * 5; rep.States != want {
		t.Fatalf("budgeted run visited %d states, want %d", rep.States, want)
	}
	if !rep.OK || rep.Truncated {
		t.Fatalf("budgeted run: OK=%v truncated=%v, want a clean deadlock-free verdict", rep.OK, rep.Truncated)
	}
	if rep.SpilledChunks == 0 {
		t.Fatal("budgeted run spilled no frontier chunks: the MemBudget path never engaged")
	}
}

// BenchmarkStreamDeadlock measures the streaming deadlock check against
// materialized exploration on the E16 workload: same visited space, but
// the streaming side retains only the frontier.
func BenchmarkStreamDeadlock(b *testing.B) {
	rings, err := models.PhilosopherRings(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := models.ControlOnly(rings)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dl := &lts.DeadlockCheck{}
			if _, err := lts.Stream(ctl, lts.Options{}, dl); err != nil {
				b.Fatal(err)
			}
			if dl.Found || !dl.Exhaustive {
				b.Fatal("rings must be deadlock-free with full coverage")
			}
		}
	})
	b.Run("materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l, err := lts.Explore(ctl, lts.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if free, err := l.DeadlockFree(); err != nil || !free {
				b.Fatal("rings must be deadlock-free")
			}
		}
	})
}

// BenchmarkExplore measures state-space exploration with worker-count
// and stream-order dimensions, on the workloads of experiments E15/E18:
// the E1-class philosopher rings (pure control, 7^5 = 16807 states, wide
// levels), the E8-class pair grid (data-carrying, 8^5 = 32768 states)
// and the narrow-and-deep chain (models.DeepChain). workers=1 is the
// sequential explorer; higher counts run the deterministic
// level-synchronized explorer (order=det, identical LTS — checked on
// every run) or the barrier-free work-stealing explorer (order=fast,
// canonically identical — state/transition counts checked on every
// run). allocs/op at workers=1 pins the slab arenas: state-store
// headers, the participants' variable values, move tables and choice
// vectors are carved from per-worker slabs, so the per-state
// allocation count must stay strictly below the PR-4 baseline (218780
// on rings). Reference timings are in EXPERIMENTS.md.
func BenchmarkExplore(b *testing.B) {
	rings, err := models.PhilosopherRings(5, 4)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := models.ControlOnly(rings)
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := bench.PairsGrid(5)
	if err != nil {
		b.Fatal(err)
	}
	deep, err := models.DeepChain(20000)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name       string
		sys        *core.System
		wantStates int
	}{
		{"rings-5x4", ctl, 16807},
		{"pairs-5x8", pairs, 32768},
		{"deep-20k", deep, 80008},
	}
	for _, c := range cases {
		for _, w := range []int{1, 2, 4, 8} {
			orders := []lts.Order{lts.Deterministic}
			if w > 1 {
				orders = append(orders, lts.Unordered)
			}
			for _, ord := range orders {
				name := fmt.Sprintf("%s/workers=%d", c.name, w)
				if ord == lts.Unordered {
					name += "/order=fast"
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						l, err := lts.Explore(c.sys, lts.Options{Workers: w, Order: ord})
						if err != nil {
							b.Fatal(err)
						}
						if l.NumStates() != c.wantStates {
							b.Fatalf("explored %d states, want %d", l.NumStates(), c.wantStates)
						}
					}
				})
			}
		}
	}
}
