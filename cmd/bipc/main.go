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
	"flag"
	"fmt"
	"os"

	"bip"
	"bip/check"
	"bip/cmd/internal/cli"
)

func main() {
	verify := flag.Bool("verify", false, "run compositional verification")
	chk := flag.Bool("check", false, "run streaming on-the-fly verification (deadlock + atom invariants, early-exit)")
	explore := flag.Bool("explore", false, "run explicit-state exploration (materialized LTS; -reduce gets deadlock-preserving reduction)")
	f := cli.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bipc [-lint [-Werror]] [-verify] [-check] [-prop p]... [-explore] [-reduce] [-workers n] [-order det|fast] [-seen exact|compact] [-mem bytes] [-timeout d] file.bip")
		os.Exit(2)
	}
	f.Exit("bipc", run(flag.Arg(0), *verify, *chk, *explore, f))
}

func run(path string, verify, chk, explore bool, f *cli.Flags) error {
	opts, cancel, err := f.Options()
	if err != nil {
		return err
	}
	defer cancel()
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

	if err := f.LintModel(sys, path); err != nil {
		return err
	}
	if verify {
		res, err := check.Compositional(sys, check.CompositionalOptions{})
		if err != nil {
			return err
		}
		fmt.Println(check.FormatCompositional(res))
	}
	if chk {
		rep, err := bip.Verify(sys, append(opts, bip.Deadlock(), bip.AtomInvariants())...)
		if err != nil {
			return err
		}
		fmt.Println(rep.String())
		fmt.Println("  memory:", cli.Memory(rep))
	}
	if len(f.Props) > 0 {
		// All requested properties ride one exploration; compile errors
		// (unknown components, locations, labels) surface before it runs.
		rep, err := bip.Verify(sys, f.WithProps(opts)...)
		if err != nil {
			return err
		}
		for i, p := range rep.Properties {
			fmt.Printf("  property %-12s %s\n", p.Name+":", f.Props[i].String())
		}
		fmt.Println(rep.String())
		fmt.Println("  memory:", cli.Memory(rep))
		if !rep.OK {
			return fmt.Errorf("%s: a property is violated or inconclusive", sys.Name)
		}
	}
	if explore {
		l, err := bip.Explore(sys, opts...)
		if err != nil {
			return err
		}
		mode := ""
		if f.Job.Reduce {
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
