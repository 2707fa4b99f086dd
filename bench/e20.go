package bench

import (
	"fmt"
	"strconv"
	"time"

	"bip/internal/core"
	"bip/internal/lts"
	"bip/models"
)

// E20Memory measures the pluggable seen-set layer (lts.Options.Seen) and
// the disk-spilled frontier (lts.Options.MemBudget) on the CounterGrid
// workload — n independent mod-k counters, exactly k^n live states with
// a 13n-byte binary key, so bytes-per-state is checkable arithmetic:
//
//   - exact (the default) stores the full key per visited state:
//     ~ keyWidth + 12 B/state once the table amortizes.
//   - compact stores a 64-bit hash discriminator + id: ~12-16 B/state
//     independent of key width, verdict-identical up to 64-bit hash
//     collisions (probability ~ n^2 * 2^-64).
//
// Every row re-checks the contract cheaply: states, transitions and the
// deadlock count must match the exact sequential reference exactly (the
// full cross-frontier differential lives in internal/lts). There are no
// det-Nw rows: Deterministic order runs one worker on the FIFO frontier
// at any worker count, so they would repeat the seq rows.
// The final row runs the work-stealing explorer under a frontier budget
// of a fraction of its unbounded peak, forcing chunks through the spill
// file and back.
func E20Memory(gridN, gridK, workers int, budgetFrac int) (*Table, error) {
	t := &Table{
		ID:    "E20",
		Title: "seen-set compaction + disk-spilled frontier (Options.Seen / Options.MemBudget)",
		Headers: []string{"config", "states", "seen B", "B/state", "ratio",
			"frontier peak B", "spilled", "time", "contract"},
	}
	sys, err := models.CounterGrid(gridN, gridK)
	if err != nil {
		return nil, err
	}

	type cfg struct {
		name string
		opts lts.Options
	}
	cfgs := []cfg{
		{"seq/exact", lts.Options{}},
		{"seq/compact", lts.Options{Seen: lts.CompactSeen{}}},
		{fmt.Sprintf("fast-%dw/exact", workers), lts.Options{Workers: workers, Order: lts.Unordered}},
		{fmt.Sprintf("fast-%dw/compact", workers), lts.Options{Workers: workers, Order: lts.Unordered, Seen: lts.CompactSeen{}}},
	}

	var ref *countSink
	var refStats lts.Stats
	for i, c := range cfgs {
		sink := &countSink{}
		t0 := time.Now()
		stats, err := lts.Stream(sys, c.opts, sink)
		if err != nil {
			return nil, err
		}
		el := time.Since(t0)
		if i == 0 {
			ref, refStats = sink, stats
		}
		t.Rows = append(t.Rows, memRow(c.name, sink, stats, refStats, el, ref))
	}

	// Spill row: rerun the fastest compact config under a budget of
	// 1/budgetFrac of its unbounded frontier peak, so a healthy share of
	// the frontier must round-trip through the spill file.
	last := cfgs[len(cfgs)-1]
	budget := refStats.PeakFrontierBytes / int64(budgetFrac)
	if budget < 1 {
		budget = 1
	}
	last.opts.MemBudget = budget
	sink := &countSink{}
	t0 := time.Now()
	stats, err := lts.Stream(sys, last.opts, sink)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, memRow(
		fmt.Sprintf("%s/mem=%d", last.name, budget), sink, stats, refStats, time.Since(t0), ref))

	t.Notes = append(t.Notes,
		fmt.Sprintf("workload: CounterGrid(%d,%d) — %d independent mod-%d counters, key width %d B", gridN, gridK, gridN, gridK, sys.BinaryKeyWidth()),
		"ratio = exact-reference seen bytes/state over this row's bytes/state (higher = more compact)",
		"contract column: states, transitions and deadlock count equal the sequential exact reference",
		"the mem= row bounds the work-stealing frontier to a fraction of its unbounded peak; spilled counts 32-entry chunk writes to the temp file")
	return t, nil
}

// memRow renders one configuration against the exact sequential
// reference.
func memRow(name string, sink *countSink, stats, refStats lts.Stats, el time.Duration, ref *countSink) []string {
	perState := float64(stats.SeenBytes) / float64(stats.States)
	refPer := float64(refStats.SeenBytes) / float64(refStats.States)
	contract := sink.states == ref.states && sink.transitions == ref.transitions &&
		sink.deadlocks == ref.deadlocks
	return []string{
		name, strconv.Itoa(sink.states), strconv.FormatInt(stats.SeenBytes, 10),
		fmt.Sprintf("%.1f", perState), fmt.Sprintf("%.2fx", refPer/perState),
		strconv.FormatInt(stats.PeakFrontierBytes, 10),
		strconv.FormatInt(stats.SpilledChunks, 10),
		ms(el), strconv.FormatBool(contract),
	}
}

// E20Ratio explores sys twice sequentially — exact then compact — and
// returns the seen-set bytes-per-state ratio between them, the number
// the CI floor (TestE20MemoryFloor) asserts against. It errors if the
// two runs disagree on states, transitions or deadlock count, so the
// ratio cannot be bought with a wrong answer. Exposed so the assertion
// and the E20 table cannot drift apart.
func E20Ratio(sys *core.System) (float64, error) {
	exact := &countSink{}
	exactStats, err := lts.Stream(sys, lts.Options{}, exact)
	if err != nil {
		return 0, err
	}
	compact := &countSink{}
	compactStats, err := lts.Stream(sys, lts.Options{Seen: lts.CompactSeen{}}, compact)
	if err != nil {
		return 0, err
	}
	if compact.states != exact.states || compact.transitions != exact.transitions ||
		compact.deadlocks != exact.deadlocks {
		return 0, fmt.Errorf("bench: compact seen set changed the exploration: %d/%d/%d vs %d/%d/%d states/transitions/deadlocks",
			compact.states, compact.transitions, compact.deadlocks,
			exact.states, exact.transitions, exact.deadlocks)
	}
	exactPer := float64(exactStats.SeenBytes) / float64(exact.states)
	compactPer := float64(compactStats.SeenBytes) / float64(compact.states)
	return exactPer / compactPer, nil
}
