// Command bipbench regenerates the paper-reproduction experiments
// (E1–E14 of DESIGN.md, plus the E16 streaming-memory comparison, the E17 property-algebra
// checking costs, the E18 work-stealing exploration sweep, the E19
// partial-order-reduction table, the E20 seen-set-compaction /
// frontier-spill memory table, the E21 bipd service load table, the
// E22 static-analysis cost table and the E23 fault-tolerance
// crash-recovery table) and prints them;
// EXPERIMENTS.md records a reference run.
//
// Usage:
//
//	bipbench            # run everything
//	bipbench -e e1      # run one experiment
//	bipbench -quick     # reduced sizes (CI-friendly)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bip/bench"
)

func main() {
	exp := flag.String("e", "all", "experiment id (e1..e23) or all")
	quick := flag.Bool("quick", false, "reduced problem sizes")
	flag.Parse()
	if err := run(*exp, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "bipbench:", err)
		os.Exit(1)
	}
}

func run(exp string, quick bool) error {
	type driver struct {
		id string
		f  func() (*bench.Table, error)
	}
	rings := 5
	enginePairs := []int{1, 2, 4, 8}
	engineSteps, engineWork := 2000, 50000
	crpSizes := []int{3, 5, 8}
	crpCommits := 200
	depths := []int{1, 2, 3, 4}
	exploreWorkers := []int{1, 2, 4, 8}
	memRings := 5
	deepDepth := int64(20000)
	gridN, redRings, redRingSize, redPhils := 9, 4, 4, 8
	memGridN, memGridK, memWorkers := 7, 5, 4
	svcJobs, svcPool, svcGridN, svcGridK := 16, 4, 6, 5
	ftJobs, ftPool, ftGridN, ftGridK := 12, 2, 6, 5
	lintPhils, lintGridN, lintGridK := []int{4, 6, 8}, 6, 5
	lintAstroN, lintAstroK := 12, 1<<20
	if quick {
		rings = 4
		enginePairs = []int{1, 2}
		engineSteps, engineWork = 200, 5000
		crpSizes = []int{3, 4}
		crpCommits = 50
		depths = []int{1, 2}
		exploreWorkers = []int{1, 4}
		memRings = 4
		deepDepth = 4000
		gridN, redRings, redRingSize, redPhils = 6, 3, 3, 6
		memGridN, memGridK = 5, 4
		svcJobs, svcPool, svcGridN, svcGridK = 8, 2, 4, 4
		ftJobs, ftPool, ftGridN, ftGridK = 8, 2, 4, 4
		lintPhils, lintGridN, lintGridK = []int{4}, 5, 4
	}
	drivers := []driver{
		{"e1", func() (*bench.Table, error) { return bench.E1DFinderVsMonolithic(rings) }},
		{"e2", bench.E2Glue},
		{"e3", func() (*bench.Table, error) { return bench.E3Lustre(500) }},
		{"e4", func() (*bench.Table, error) { return bench.E4UnitDelay(8) }},
		{"e5", bench.E5Refinement},
		{"e6", bench.E6Stability},
		{"e7", func() (*bench.Table, error) { return bench.E7CRP(crpSizes, crpCommits) }},
		{"e8", func() (*bench.Table, error) { return bench.E8Engines(enginePairs, engineSteps, engineWork) }},
		{"e9", func() (*bench.Table, error) { return bench.E9Arch([]int{2, 3, 4, 5}) }},
		{"e10", bench.E10Anomaly},
		{"e11", bench.E11Invariants},
		{"e12", func() (*bench.Table, error) { return bench.E12Incremental(7) }},
		{"e13", func() (*bench.Table, error) { return bench.E13Flattening(depths) }},
		{"e14", bench.E14Elevator},
		{"e16", func() (*bench.Table, error) { return bench.E16StreamingMemory(memRings) }},
		{"e17", func() (*bench.Table, error) { return bench.E17PropertyCheck(memRings) }},
		{"e18", func() (*bench.Table, error) { return bench.E18WorkStealing(exploreWorkers, deepDepth) }},
		{"e19", func() (*bench.Table, error) { return bench.E19Reduction(gridN, redRings, redRingSize, redPhils) }},
		{"e20", func() (*bench.Table, error) { return bench.E20Memory(memGridN, memGridK, memWorkers, 8) }},
		{"e21", func() (*bench.Table, error) { return bench.E21Service(svcJobs, svcPool, svcGridN, svcGridK) }},
		{"e22", func() (*bench.Table, error) {
			return bench.E22Lint(lintPhils, lintGridN, lintGridK, lintAstroN, lintAstroK)
		}},
		{"e23", func() (*bench.Table, error) {
			return bench.E23FaultTolerance(ftJobs, ftPool, ftGridN, ftGridK, 30*time.Second)
		}},
	}
	want := strings.ToLower(exp)
	found := false
	for _, d := range drivers {
		if want != "all" && want != d.id {
			continue
		}
		found = true
		t, err := d.f()
		if err != nil {
			return fmt.Errorf("%s: %w", d.id, err)
		}
		fmt.Println(t.String())
	}
	if !found {
		return fmt.Errorf("unknown experiment %q (want e1..e23 or all)", exp)
	}
	return nil
}
