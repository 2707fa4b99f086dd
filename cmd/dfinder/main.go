// Command dfinder runs compositional deadlock-freedom verification
// (component invariants + trap-based interaction invariants + DIS
// satisfiability) on the built-in benchmark models, optionally comparing
// against the monolithic checker — which now streams: the explicit-state
// side early-exits on the first deadlock instead of materializing the
// state space.
//
// Usage:
//
//	dfinder -model philosophers -n 8
//	dfinder -model gasstation -n 3 -m 4
//	dfinder -model philosophers2p -n 4 -mono
//	dfinder -model philosophers -n 4 -prop 'never(at(phil0, eating) & at(phil1, eating))'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"bip"
	"bip/check"
	"bip/lint"
	"bip/models"
)

func main() {
	model := flag.String("model", "philosophers", "philosophers | philosophers2p | tokenring | gasstation | elevator | prodcons")
	n := flag.Int("n", 4, "size parameter (philosophers/ring stations/pumps/floors)")
	m := flag.Int("m", 2, "second size parameter (gas station customers)")
	mono := flag.Bool("mono", false, "also run the monolithic streaming deadlock checker")
	traps := flag.Int("traps", 0, "max interaction invariants (0 = auto)")
	workers := flag.Int("workers", runtime.NumCPU(), "monolithic work-stealing workers for -order fast (<0 = GOMAXPROCS; default: all CPUs); -order det explores sequentially")
	order := flag.String("order", "det", "exploration order: det (sequential, deterministic stream) | fast (work-stealing over -workers)")
	maxStates := flag.Int("max-states", 0, "exploration bound for -prop/-mono (0 = library default; data-carrying models are unbounded)")
	reduce := flag.Bool("reduce", false, "ample-set partial-order reduction for the -prop/-mono explorations")
	seen := flag.String("seen", "exact", "visited-state storage for -prop/-mono: exact (full keys) | compact (hash-compacted, ~12 B/state)")
	mem := flag.Int64("mem", 0, "frontier memory budget in bytes for -prop/-mono (0 = unbounded; spills to disk under -order fast)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound on the -prop/-mono explorations (0 = none); timed-out runs exit non-zero")
	lintFlag := flag.Bool("lint", false, "run static model analysis (bip/lint) on the built model before any verification")
	werror := flag.Bool("Werror", false, "with -lint (implied): exit non-zero when lint reports any warning")
	var props propFlags
	flag.Var(&props, "prop", "textual property to check on the built model (repeatable)")
	flag.Parse()
	if err := run(*model, *n, *m, *mono, *reduce, *lintFlag || *werror, *werror, *traps, *workers, *maxStates, *order, *seen, *mem, *timeout, props); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("timed out after %s (-timeout): %w", *timeout, err)
		}
		fmt.Fprintln(os.Stderr, "dfinder:", err)
		os.Exit(1)
	}
}

// propFlags collects repeated -prop occurrences.
type propFlags []string

func (p *propFlags) String() string { return fmt.Sprint(*p) }

func (p *propFlags) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func buildModel(model string, n, m int) (*bip.System, error) {
	switch model {
	case "philosophers":
		return models.Philosophers(n)
	case "philosophers2p":
		return models.PhilosophersDeadlocking(n)
	case "tokenring":
		return models.TokenRing(n)
	case "gasstation":
		return models.GasStation(n, m)
	case "elevator":
		return models.Elevator(n)
	case "prodcons":
		return models.ProducerConsumer(int64(n))
	default:
		return nil, fmt.Errorf("unknown model %q", model)
	}
}

func run(model string, n, m int, mono, reduce, lintModel, werror bool, maxTraps, workers, maxStates int, order, seen string, mem int64, timeout time.Duration, props []string) error {
	var ordOpts []bip.Option
	if timeout > 0 {
		// One budget shared by every exploration this invocation runs.
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		ordOpts = append(ordOpts, bip.WithContext(ctx))
	}
	switch order {
	case "det", "":
	case "fast":
		ordOpts = append(ordOpts, bip.Unordered())
	default:
		return fmt.Errorf("unknown -order %q (want det or fast)", order)
	}
	if reduce {
		ordOpts = append(ordOpts, bip.Reduce())
	}
	switch seen {
	case "exact", "":
	case "compact":
		ordOpts = append(ordOpts, bip.CompactSeen())
	default:
		return fmt.Errorf("unknown -seen %q (want exact or compact)", seen)
	}
	if mem > 0 {
		ordOpts = append(ordOpts, bip.MemBudget(mem))
	}
	sys, err := buildModel(model, n, m)
	if err != nil {
		return err
	}
	fmt.Println(sys.Stats())

	if lintModel {
		// Built models carry no source positions; diagnostics render
		// without line:col.
		diags, err := bip.Lint(sys)
		if err != nil {
			return err
		}
		warnings := 0
		for _, d := range diags {
			fmt.Println("lint:", d)
			if d.Severity != lint.SeverityInfo {
				warnings++
			}
		}
		if len(diags) == 0 {
			fmt.Println("lint: model is clean")
		}
		if werror && warnings > 0 {
			return fmt.Errorf("%s: lint reported %d warning(s) (-Werror)", model, warnings)
		}
	}

	if len(props) > 0 {
		opts := append([]bip.Option{bip.Workers(workers), bip.MaxStates(maxStates)}, ordOpts...)
		for _, src := range props {
			p, err := bip.ParseProp(src)
			if err != nil {
				return fmt.Errorf("-prop %q: %w", src, err)
			}
			opts = append(opts, bip.Prop(p))
		}
		rep, err := bip.Verify(sys, opts...)
		if err != nil {
			return err
		}
		fmt.Println(rep.String())
	}

	t0 := time.Now()
	res, err := check.Compositional(sys, check.CompositionalOptions{MaxTraps: maxTraps})
	if err != nil {
		return err
	}
	fmt.Printf("compositional (%.2fms): %s\n",
		float64(time.Since(t0).Microseconds())/1000, check.FormatCompositional(res))

	if !mono {
		return nil
	}
	ctl, err := models.ControlOnly(sys)
	if err != nil {
		return err
	}
	t1 := time.Now()
	rep, err := bip.Verify(ctl, append([]bip.Option{bip.Deadlock(), bip.Workers(workers), bip.MaxStates(maxStates)}, ordOpts...)...)
	if err != nil {
		return err
	}
	dl, _ := rep.Property("deadlock")
	verdict := "DEADLOCK-FREE"
	switch {
	case dl.Violated:
		verdict = fmt.Sprintf("DEADLOCK after %v", dl.Path)
	case !dl.Conclusive:
		verdict = fmt.Sprintf("undecided (bound hit after %d states)", rep.States)
	}
	reduced := ""
	if rep.Reduced {
		reduced = fmt.Sprintf(" (reduced: %d ample, %d moves pruned, %d proviso fallbacks)",
			rep.AmpleStates, rep.PrunedMoves, rep.ProvisoFallbacks)
	}
	memLine := fmt.Sprintf(" [seen-set %d B, frontier peak %d B", rep.SeenBytes, rep.PeakFrontierBytes)
	if rep.SpilledChunks > 0 {
		memLine += fmt.Sprintf(", %d chunks spilled", rep.SpilledChunks)
	}
	memLine += "]"
	fmt.Printf("monolithic   (%.2fms): %d states, %d transitions streamed%s%s — %s\n",
		float64(time.Since(t1).Microseconds())/1000, rep.States, rep.Transitions, reduced, memLine, verdict)
	return nil
}
