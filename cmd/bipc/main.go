// Command bipc is the front-end of the BIP textual language: it parses
// and validates a .bip file, reports the model's structure, and can run
// quick analyses — compositional verification, on-the-fly streaming
// checks, declarative property checking, or explicit-state exploration.
// It is built entirely on the public bip / bip/check / bip/prop API.
//
// Usage:
//
//	bipc model.bip
//	bipc -verify model.bip
//	bipc -check model.bip
//	bipc -prop 'always(l.n <= 10)' -prop 'after(hit, until(l.n >= 1, back))' model.bip
//	bipc -explore model.bip
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
	"bip/prop"
)

// propFlags collects repeated -prop occurrences.
type propFlags []string

func (p *propFlags) String() string { return fmt.Sprint(*p) }

func (p *propFlags) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func main() {
	verify := flag.Bool("verify", false, "run compositional verification")
	chk := flag.Bool("check", false, "run streaming on-the-fly verification (deadlock + atom invariants, early-exit)")
	explore := flag.Bool("explore", false, "run explicit-state exploration (materialized LTS)")
	maxStates := flag.Int("max-states", 0, fmt.Sprintf("exploration bound (0 = library default, %d)", check.DefaultMaxStates))
	workers := flag.Int("workers", runtime.NumCPU(), "work-stealing workers for -order fast (<0 = GOMAXPROCS; default: all CPUs); -order det explores sequentially")
	order := flag.String("order", "det", "exploration order: det (sequential, deterministic stream) | fast (work-stealing over -workers; same verdicts, scheduling-dependent numbering)")
	reduce := flag.Bool("reduce", false, "ample-set partial-order reduction (degrades to full expansion when a property needs it; -explore gets deadlock-preserving reduction)")
	seen := flag.String("seen", "exact", "visited-state storage: exact (full keys) | compact (hash-compacted, ~12 B/state)")
	mem := flag.Int64("mem", 0, "frontier memory budget in bytes (0 = unbounded; spills to disk under -order fast)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound on each analysis (0 = none); timed-out runs exit non-zero")
	lintFlag := flag.Bool("lint", false, "run static model analysis (bip/lint) before any exploration and print the diagnostics")
	werror := flag.Bool("Werror", false, "with -lint (implied): exit non-zero when lint reports any warning")
	var props propFlags
	flag.Var(&props, "prop", "textual property to check on the fly (repeatable): always/never/until/after/between/reachable/deadlockfree")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bipc [-lint [-Werror]] [-verify] [-check] [-prop p]... [-explore] [-reduce] [-workers n] [-order det|fast] [-seen exact|compact] [-mem bytes] [-timeout d] file.bip")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *verify, *chk, *explore, *reduce, *lintFlag || *werror, *werror, *maxStates, *workers, *order, *seen, *mem, *timeout, props); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("timed out after %s (-timeout): %w", *timeout, err)
		}
		fmt.Fprintln(os.Stderr, "bipc:", err)
		os.Exit(1)
	}
}

// printMem reports the run's memory accounting (seen-set footprint,
// frontier high-water mark, and the compact/spill counters when the
// corresponding machinery engaged).
func printMem(rep *bip.Report) {
	fmt.Printf("  memory: seen-set %d B, frontier peak %d B", rep.SeenBytes, rep.PeakFrontierBytes)
	if rep.ExactPromotions > 0 {
		fmt.Printf(", %d exact promotions", rep.ExactPromotions)
	}
	if rep.SpilledChunks > 0 {
		fmt.Printf(", %d chunks spilled", rep.SpilledChunks)
	}
	fmt.Println()
}

// orderOptions maps the -order flag to bip exploration options.
func orderOptions(order string) ([]bip.Option, error) {
	switch order {
	case "det", "":
		return nil, nil
	case "fast":
		return []bip.Option{bip.Unordered()}, nil
	default:
		return nil, fmt.Errorf("unknown -order %q (want det or fast)", order)
	}
}

func run(path string, verify, chk, explore, reduce, lintModel, werror bool, maxStates, workers int, order, seen string, mem int64, timeout time.Duration, props []string) error {
	ordOpts, err := orderOptions(order)
	if err != nil {
		return err
	}
	if timeout > 0 {
		// One budget for the whole invocation: every analysis below
		// shares the deadline through bip.WithContext.
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		ordOpts = append(ordOpts, bip.WithContext(ctx))
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
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sys, err := bip.Parse(string(src))
	if err != nil {
		return fmt.Errorf("%s:%w", path, err)
	}
	fmt.Println(sys.Stats())
	for _, a := range sys.Atoms {
		fmt.Println(" ", a.String())
	}
	for _, in := range sys.Interactions {
		fmt.Println("  interaction", in.String())
	}
	for _, p := range sys.Priorities {
		fmt.Println("  priority", p.String())
	}

	if lintModel {
		diags, err := bip.Lint(sys)
		if err != nil {
			return err
		}
		warnings := 0
		for _, d := range diags {
			fmt.Println(d.Render(path))
			if d.Severity != lint.SeverityInfo {
				warnings++
			}
		}
		if len(diags) == 0 {
			fmt.Printf("lint: %s is clean\n", path)
		}
		if werror && warnings > 0 {
			return fmt.Errorf("%s: lint reported %d warning(s) (-Werror)", path, warnings)
		}
	}
	if verify {
		res, err := check.Compositional(sys, check.CompositionalOptions{})
		if err != nil {
			return err
		}
		fmt.Println(check.FormatCompositional(res))
	}
	if chk {
		opts := append([]bip.Option{
			bip.Deadlock(), bip.AtomInvariants(),
			bip.MaxStates(maxStates), bip.Workers(workers)}, ordOpts...)
		rep, err := bip.Verify(sys, opts...)
		if err != nil {
			return err
		}
		fmt.Println(rep.String())
		printMem(rep)
	}
	if len(props) > 0 {
		// All requested properties ride one exploration; compile errors
		// (unknown components, locations, labels) surface before it runs.
		opts := append([]bip.Option{bip.MaxStates(maxStates), bip.Workers(workers)}, ordOpts...)
		var parsed []prop.Prop
		for _, src := range props {
			p, err := bip.ParseProp(src)
			if err != nil {
				return fmt.Errorf("-prop %q: %w", src, err)
			}
			parsed = append(parsed, p)
			opts = append(opts, bip.Prop(p))
		}
		rep, err := bip.Verify(sys, opts...)
		if err != nil {
			return err
		}
		for i, p := range rep.Properties {
			fmt.Printf("  property %-12s %s\n", p.Name+":", parsed[i].String())
		}
		fmt.Println(rep.String())
		printMem(rep)
		if !rep.OK {
			return fmt.Errorf("%s: a property is violated or inconclusive", sys.Name)
		}
	}
	if explore {
		opts := append([]bip.Option{bip.MaxStates(maxStates), bip.Workers(workers)}, ordOpts...)
		l, err := bip.Explore(sys, opts...)
		if err != nil {
			return err
		}
		mode := ""
		if reduce {
			mode = ", deadlock-preserving reduction"
		}
		fmt.Printf("explored %d states, %d transitions (truncated=%v%s)\n",
			l.NumStates(), l.NumTransitions(), l.Truncated(), mode)
		if dls := l.Deadlocks(); len(dls) > 0 && !l.Truncated() {
			fmt.Printf("deadlock reachable via %v\n", l.PathTo(dls[0]))
		}
	}
	return nil
}
