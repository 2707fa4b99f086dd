// Package bench implements the experiment drivers that regenerate every
// figure/claim of the paper indexed in DESIGN.md (E1–E16). Each driver
// returns a Table whose rows are what cmd/bipbench prints and what
// EXPERIMENTS.md records; the root-level Go benchmarks reuse the same
// drivers so `go test -bench` and `bipbench` cannot drift apart. The
// package is public (import "bip/bench") so the tools stay buildable by
// external consumers.
package bench

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bip/internal/core"
	"bip/internal/distributed"
	"bip/internal/engine"
	"bip/internal/glue"
	"bip/internal/invariant"
	"bip/internal/lts"
	"bip/internal/lustre"
	"bip/internal/refine"
	"bip/internal/timed"
	"bip/models"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

// E1DFinderVsMonolithic reproduces the paper's headline verification
// claim: compositional verification (component invariants + trap-based
// interaction invariants, package invariant) scales where monolithic
// explicit-state checking (package lts, the NuSMV stand-in) explodes.
// The workload is K independent philosopher rings of 4: the global state
// space multiplies (7^K) while the compositional abstraction grows
// linearly — exactly the state-explosion phenomenon of §4.3.
func E1DFinderVsMonolithic(maxRings int) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "deadlock-freedom: D-Finder-style compositional vs monolithic (K independent philosopher rings of 4)",
		Headers: []string{"rings", "components", "mono states", "mono time", "dfinder places", "dfinder traps", "dfinder time", "both verdicts"},
	}
	for k := 1; k <= maxRings; k++ {
		sys, err := models.PhilosopherRings(k, 4)
		if err != nil {
			return nil, err
		}
		ctl, err := models.ControlOnly(sys)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		l, err := lts.Explore(ctl, lts.Options{})
		if err != nil {
			return nil, err
		}
		monoTime := time.Since(t0)
		monoFree, err := l.DeadlockFree()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		res, err := invariant.Verify(sys, invariant.Options{})
		if err != nil {
			return nil, err
		}
		dfTime := time.Since(t1)
		verdict := "agree: deadlock-free"
		if !monoFree || !res.DeadlockFree {
			verdict = fmt.Sprintf("mono=%v dfinder=%v", monoFree, res.DeadlockFree)
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(k),
			strconv.Itoa(len(sys.Atoms)),
			strconv.Itoa(l.NumStates()),
			ms(monoTime),
			strconv.Itoa(res.NumPlaces),
			strconv.Itoa(len(res.Traps)),
			ms(dfTime),
			verdict,
		})
	}
	t.Notes = append(t.Notes,
		"monolithic states multiply by 7 per ring (exponential); compositional places/traps grow linearly",
		"NuSMV substituted by the explicit-state checker (same algorithmic class); see EXPERIMENTS.md")
	return t, nil
}

// E2Glue reproduces the expressiveness separation: no interaction-only
// glue matches broadcast-with-priorities over unchanged components.
func E2Glue() (*Table, error) {
	start := time.Now()
	res, err := glue.CheckSeparation()
	if err != nil {
		return nil, err
	}
	pos, err := glue.PriorityGlueMatches()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E2",
		Title:   "glue expressiveness: interactions+priorities vs interactions only",
		Headers: []string{"candidate glues", "bisimilar to broadcast", "priorities suffice", "time"},
		Rows: [][]string{{
			strconv.Itoa(res.Candidates),
			strconv.Itoa(len(res.Equivalent)),
			strconv.FormatBool(pos),
			ms(time.Since(start)),
		}},
		Notes: []string{"0 equivalent candidates = the separation theorem of [Bliudze&Sifakis 2008] holds executably"},
	}
	return t, nil
}

// E3Lustre reproduces Fig. 5.2: the embedded integrator agrees with the
// reference synchronous semantics and the translation is linear-size.
func E3Lustre(cycles int) (*Table, error) {
	prog := lustre.Integrator()
	emb, err := lustre.Embed(prog)
	if err != nil {
		return nil, err
	}
	it, err := lustre.NewInterp(prog)
	if err != nil {
		return nil, err
	}
	inputs := make([]map[string]int64, cycles)
	for i := range inputs {
		inputs[i] = map[string]int64{"X": int64(i%7 - 3)}
	}
	start := time.Now()
	got, err := emb.Run(inputs)
	if err != nil {
		return nil, err
	}
	match := true
	for i, in := range inputs {
		want, err := it.Step(in)
		if err != nil {
			return nil, err
		}
		if got[i]["Y"] != want["Y"] {
			match = false
		}
	}
	return &Table{
		ID:      "E3",
		Title:   "Lustre embedding (Fig 5.2): integrator Y = X + pre(Y)",
		Headers: []string{"nodes", "BIP components", "interactions", "cycles", "matches reference", "time"},
		Rows: [][]string{{
			strconv.Itoa(emb.NumNodes),
			strconv.Itoa(len(emb.Sys.Atoms)),
			strconv.Itoa(len(emb.Sys.Interactions)),
			strconv.Itoa(cycles),
			strconv.FormatBool(match),
			ms(time.Since(start)),
		}},
		Notes: []string{"components = nodes (structure preservation); interactions = wires + {str, cmp}"},
	}, nil
}

// E4UnitDelay reproduces Fig. 5.3: the unit-delay automaton family,
// whose locations and clocks grow linearly with the admissible change
// rate k.
func E4UnitDelay(maxK int) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "unit delay y(t)=x(t-1) as a timed automaton (Fig 5.3)",
		Headers: []string{"k (changes/unit)", "locations", "clocks", "simulation vs reference"},
	}
	for k := 1; k <= maxK; k++ {
		locs, clocks := timed.UnitDelaySize(k)
		script := make([]int, 6)
		for i := range script {
			script[i] = (i + k) % (k + 1)
		}
		verdict := "ok"
		if _, err := timed.SimulateUnitDelay(k, script); err != nil {
			verdict = err.Error()
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(k), strconv.Itoa(locs), strconv.Itoa(clocks), verdict,
		})
	}
	t.Notes = append(t.Notes, "k=1 is exactly the paper's 4-location, 1-clock automaton; growth is linear in k")
	return t, nil
}

// refinePair builds the conflict-free two-component system used by E5.
func refinePair() (*core.System, error) {
	ping := behaviorPing()
	return core.NewSystem("pair").
		AddAs("l", ping).AddAs("r", ping).
		Connect("a", core.P("l", "hit"), core.P("r", "hit")).
		Connect("z", core.P("l", "back"), core.P("r", "back")).
		Build()
}

// E5Refinement reproduces the top of Fig. 5.4: S/R refinement of a
// conflict-free interaction is observationally equivalent and preserves
// deadlock-freedom.
func E5Refinement() (*Table, error) {
	sys, err := refinePair()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ref, err := refine.Refine(sys, map[string]string{"a": "l"})
	if err != nil {
		return nil, err
	}
	lSpec, err := lts.Explore(sys, lts.Options{})
	if err != nil {
		return nil, err
	}
	lImpl, err := lts.Explore(ref, lts.Options{})
	if err != nil {
		return nil, err
	}
	equiv := lts.ObsTraceEquivalent(lImpl, lSpec, refine.Observation([]string{"a"}), nil)
	free, err := lImpl.DeadlockFree()
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "E5",
		Title:   "interaction refinement str/rcv/ack/cmp (Fig 5.4 top)",
		Headers: []string{"spec states", "refined states", "obs-equivalent", "deadlock-free preserved", "time"},
		Rows: [][]string{{
			strconv.Itoa(lSpec.NumStates()),
			strconv.Itoa(lImpl.NumStates()),
			strconv.FormatBool(equiv),
			strconv.FormatBool(free),
			ms(time.Since(start)),
		}},
	}, nil
}

// E6Stability reproduces the bottom of Fig. 5.4: naive refinement is not
// stable under conflict — it introduces a deadlock — and the
// reservation-based distributed protocol restores correctness.
func E6Stability() (*Table, error) {
	sys, err := stabilityWitness()
	if err != nil {
		return nil, err
	}
	lSpec, err := lts.Explore(sys, lts.Options{})
	if err != nil {
		return nil, err
	}
	specFree, err := lSpec.DeadlockFree()
	if err != nil {
		return nil, err
	}
	ref, err := refine.Refine(sys, map[string]string{"a": "C2", "b": "C2"})
	if err != nil {
		return nil, err
	}
	lImpl, err := lts.Explore(ref, lts.Options{})
	if err != nil {
		return nil, err
	}
	naiveDeadlocks := len(lImpl.Deadlocks())

	d, err := distributed.Deploy(sys, distributed.Config{
		CRP: distributed.Ordered, Seed: 4, MaxCommits: 25, MaxMessages: 1 << 18,
	})
	if err != nil {
		return nil, err
	}
	stats, err := d.Run()
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "E6",
		Title:   "refinement instability under conflict (Fig 5.4 bottom) and its repair",
		Headers: []string{"original deadlock-free", "naive-refined deadlocks", "reservation commits", "reservation aborts"},
		Rows: [][]string{{
			strconv.FormatBool(specFree),
			strconv.Itoa(naiveDeadlocks),
			strconv.Itoa(stats.Commits),
			strconv.Itoa(stats.Aborts),
		}},
		Notes: []string{"naive str(a) commits the shared component to a partner that is never ready; reservation (3-layer CRP) avoids this"},
	}, nil
}

// E7CRP reproduces the distributed-implementation comparison: the three
// conflict-resolution protocols all preserve observable behaviour and
// pay different message costs.
func E7CRP(sizes []int, commits int) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "3-layer S/R-BIP: conflict resolution protocols (philosophers)",
		Headers: []string{"n", "CRP", "commits", "messages", "msg/commit", "aborts", "order valid", "time"},
	}
	for _, n := range sizes {
		sys, err := models.Philosophers(n)
		if err != nil {
			return nil, err
		}
		for _, crp := range []distributed.CRP{distributed.Centralized, distributed.TokenRing, distributed.Ordered} {
			start := time.Now()
			d, err := distributed.Deploy(sys, distributed.Config{
				CRP: crp, Seed: 13, MaxCommits: commits, MaxMessages: 1 << 22,
			})
			if err != nil {
				return nil, err
			}
			stats, err := d.Run()
			if err != nil {
				return nil, err
			}
			_, replayErr := distributed.ReplayLabels(sys, stats.Labels)
			t.Rows = append(t.Rows, []string{
				strconv.Itoa(n),
				crp.String(),
				strconv.Itoa(stats.Commits),
				strconv.Itoa(stats.Messages),
				fmt.Sprintf("%.1f", stats.MsgPerCommit),
				strconv.Itoa(stats.Aborts),
				strconv.FormatBool(replayErr == nil),
				ms(time.Since(start)),
			})
		}
	}
	return t, nil
}

// workPairs builds p independent worker pairs whose synchronizations
// carry real computation, the E8 workload.
func workPairs(p, work int) (*core.System, error) {
	b := core.NewSystem(fmt.Sprintf("pairs-%d", p))
	for i := 0; i < p; i++ {
		w := workerAtom(work)
		l, r := "l"+strconv.Itoa(i), "r"+strconv.Itoa(i)
		b.AddAs(l, w)
		b.AddAs(r, w)
		b.Connect("sync"+strconv.Itoa(i), core.P(l, "step"), core.P(r, "step"))
	}
	return b.Build()
}

// E8Engines compares the single-threaded and multi-threaded engines on
// compute-heavy independent interactions.
func E8Engines(pairCounts []int, steps, work int) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "single-threaded vs multi-threaded engine (independent worker pairs)",
		Headers: []string{"pairs", "steps", "ST time", "MT time", "speedup", "MT order valid"},
	}
	for _, p := range pairCounts {
		sys, err := workPairs(p, work)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := engine.Run(sys, engine.Options{MaxSteps: steps}); err != nil {
			return nil, err
		}
		st := time.Since(t0)
		t1 := time.Now()
		res, err := engine.RunMT(sys, engine.MTOptions{MaxSteps: steps})
		if err != nil {
			return nil, err
		}
		mt := time.Since(t1)
		_, replayErr := engine.Replay(sys, res.Moves)
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(p),
			strconv.Itoa(steps),
			ms(st),
			ms(mt),
			fmt.Sprintf("%.2fx", float64(st)/float64(mt)),
			strconv.FormatBool(replayErr == nil),
		})
	}
	t.Notes = append(t.Notes,
		"speedup grows with the number of disjoint interactions per round (paper §5.6: engines)",
		fmt.Sprintf("ceiling bounded by GOMAXPROCS=%d on this machine", runtime.GOMAXPROCS(0)))
	return t, nil
}

// E10Anomaly reproduces the §5.2.2 robustness discussion: timing
// anomalies under non-deterministic scheduling, robustness under
// deterministic scheduling.
func E10Anomaly() (*Table, error) {
	jobs, machines := timed.GrahamAnomaly()
	slow, err := timed.ListSchedule(jobs, machines)
	if err != nil {
		return nil, err
	}
	faster := make([]timed.Job, len(jobs))
	copy(faster, jobs)
	for i := range faster {
		faster[i].Dur--
	}
	fast, err := timed.ListSchedule(faster, machines)
	if err != nil {
		return nil, err
	}
	detErr := timed.CheckFixedRobust(jobs, machines)
	an, searchErr := timed.FindAnomaly(7, 4000)
	t := &Table{
		ID:      "E10",
		Title:   "timing anomalies (φ vs φ' < φ) and time-robustness of deterministic models",
		Headers: []string{"instance", "WCET makespan", "faster makespan", "anomaly", "deterministic robust"},
		Rows: [][]string{{
			"Graham-9jobs-3machines",
			strconv.Itoa(slow.Makespan),
			strconv.Itoa(fast.Makespan),
			strconv.FormatBool(fast.Makespan > slow.Makespan),
			strconv.FormatBool(detErr == nil),
		}},
	}
	if searchErr == nil {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("random-%djobs-%dmachines", len(an.Jobs), an.Machines),
			strconv.Itoa(an.SlowSpan),
			strconv.Itoa(an.FastSpan),
			"true",
			strconv.FormatBool(timed.CheckFixedRobust(an.Jobs, an.Machines) == nil),
		})
	}
	t.Notes = append(t.Notes, "safety under WCET does not imply safety under faster execution — except for deterministic designs ([1],[31])")
	return t, nil
}

// E11Invariants reproduces Fig. 6.1: the GCD invariant holds on every
// reachable state, and glue composition preserves component invariants.
func E11Invariants() (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "invariants: GCD program (Fig 6.1) and preservation under composition",
		Headers: []string{"case", "states", "invariant holds", "result"},
	}
	for _, pair := range [][2]int64{{36, 60}, {35, 14}, {17, 5}, {1024, 768}} {
		sys, err := models.GCD(pair[0], pair[1])
		if err != nil {
			return nil, err
		}
		want := models.GCDInt(pair[0], pair[1])
		gi := sys.AtomIndex("gcd")
		l, err := lts.Explore(sys, lts.Options{})
		if err != nil {
			return nil, err
		}
		ok, _, _ := l.CheckInvariant(func(st core.State) bool {
			x, _ := st.Vars[gi].Get("x")
			y, _ := st.Vars[gi].Get("y")
			xi, _ := x.Int()
			yi, _ := y.Int()
			return models.GCDInt(xi, yi) == want
		})
		fin, _ := l.FindState(func(st core.State) bool { return st.Locs[gi] == "done" })
		x, _ := l.State(fin).Vars[gi].Get("x")
		xv, _ := x.Int()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("gcd(%d,%d)", pair[0], pair[1]),
			strconv.Itoa(l.NumStates()),
			strconv.FormatBool(ok),
			fmt.Sprintf("computed %d (want %d)", xv, want),
		})
	}
	// Preservation under composition: the bounded buffer's invariant
	// keeps holding inside the composed producer/consumer system.
	sys, err := models.ProducerConsumer(3)
	if err != nil {
		return nil, err
	}
	l, err := lts.Explore(sys, lts.Options{MaxStates: 4000})
	if err != nil {
		return nil, err
	}
	ok, _, _ := l.CheckInvariant(func(st core.State) bool { return sys.CheckInvariants(st) == nil })
	t.Rows = append(t.Rows, []string{
		"buffer invariant in composition", strconv.Itoa(l.NumStates()), strconv.FormatBool(ok), "0 ≤ count ≤ cap preserved by glue",
	})
	return t, nil
}

// E12Incremental reproduces the incremental-verification claim: reusing
// interaction invariants when the design grows beats re-verification.
func E12Incremental(n int) (*Table, error) {
	full, err := models.Philosophers(n)
	if err != nil {
		return nil, err
	}
	// The "previous design": same atoms, all interactions but the last.
	prev := core.NewSystem(full.Name + "-grow")
	for _, a := range full.Atoms {
		prev.AddAs(a.Name, a)
	}
	for _, in := range full.Interactions[:len(full.Interactions)-1] {
		prev.ConnectGD(in.Name, in.Guard, in.Action, in.Ports...)
	}
	prevSys, err := prev.Build()
	if err != nil {
		return nil, err
	}
	prevRes, err := invariant.Verify(prevSys, invariant.Options{})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	fresh, err := invariant.Verify(full, invariant.Options{})
	if err != nil {
		return nil, err
	}
	freshTime := time.Since(t0)
	t1 := time.Now()
	reused, err := invariant.Verify(full, invariant.Options{ReuseTraps: prevRes.Traps})
	if err != nil {
		return nil, err
	}
	reuseTime := time.Since(t1)
	return &Table{
		ID:      "E12",
		Title:   fmt.Sprintf("incremental verification: philosophers-%d grown by one interaction", n),
		Headers: []string{"mode", "traps", "verdict", "time"},
		Rows: [][]string{
			{"from scratch", strconv.Itoa(len(fresh.Traps)), verdict(fresh), ms(freshTime)},
			{"reusing invariants", strconv.Itoa(len(reused.Traps)), verdict(reused), ms(reuseTime)},
		},
		Notes: []string{"reused traps are revalidated against the new interaction and kept when still traps (§5.6)"},
	}, nil
}

func verdict(r *invariant.Result) string {
	if r.DeadlockFree {
		return "deadlock-free"
	}
	return "inconclusive"
}

// E13Flattening reproduces the §5.3.2 requirements: flattening nested
// composites yields bisimilar systems.
func E13Flattening(depths []int) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "flattening & incrementality: nested composite ≈ flat system",
		Headers: []string{"nesting depth", "states", "bisimilar", "time"},
	}
	for _, depth := range depths {
		nested, flat, err := nestedVsFlat(depth)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ln, err := lts.Explore(nested, lts.Options{})
		if err != nil {
			return nil, err
		}
		lf, err := lts.Explore(flat, lts.Options{})
		if err != nil {
			return nil, err
		}
		strip := func(label string) (string, bool) {
			if i := strings.LastIndexByte(label, '/'); i >= 0 {
				return label[i+1:], true
			}
			return label, true
		}
		ok := lts.Bisimilar(ln, lf, strip, nil)
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(depth),
			strconv.Itoa(ln.NumStates()),
			strconv.FormatBool(ok),
			ms(time.Since(start)),
		})
	}
	return t, nil
}

// E14Elevator reproduces the introduction's requirement-to-property
// link: "doors closed while moving" enforced by construction and checked
// two ways.
func E14Elevator() (*Table, error) {
	safe, err := models.Elevator(3)
	if err != nil {
		return nil, err
	}
	unsafe, err := models.UnsafeElevator(3)
	if err != nil {
		return nil, err
	}
	row := func(sys *core.System) ([]string, error) {
		l, err := lts.Explore(sys, lts.Options{})
		if err != nil {
			return nil, err
		}
		ok, _, path := l.CheckInvariant(func(st core.State) bool {
			return !models.MovingWithDoorOpen(sys)(st)
		})
		res, err := invariant.Verify(sys, invariant.Options{})
		if err != nil {
			return nil, err
		}
		detail := "-"
		if !ok {
			detail = "violation after " + strings.Join(path, ",")
		}
		return []string{
			sys.Name,
			strconv.Itoa(l.NumStates()),
			strconv.FormatBool(ok),
			verdict(res),
			detail,
		}, nil
	}
	t := &Table{
		ID:      "E14",
		Title:   "elevator requirement: doors closed while moving (§1.2)",
		Headers: []string{"model", "states", "requirement holds", "compositional verdict", "detail"},
	}
	for _, sys := range []*core.System{safe, unsafe} {
		r, err := row(sys)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, r)
	}
	return t, nil
}

// E9Arch is implemented in helpers.go to keep this file readable;
// E16StreamingMemory lives in e16.go.
