// Command bipsim executes a BIP model — a built-in benchmark or a .bip
// source file — on the single-threaded or multi-threaded engine and
// prints the interaction trace. It is built entirely on the public
// bip / bip/models API.
//
// Usage:
//
//	bipsim -model philosophers -n 4 -steps 20 -seed 7
//	bipsim -f model.bip -steps 50
//	bipsim -model prodcons -mt -steps 100
package main

import (
	"flag"
	"fmt"
	"os"

	"bip"
	"bip/cmd/internal/cli"
)

func main() {
	model := flag.String("model", "", "built-in model: "+cli.ModelNames())
	file := flag.String("f", "", "BIP source file")
	n := flag.Int("n", 4, "size parameter")
	steps := flag.Int("steps", 20, "maximum steps")
	seed := flag.Int64("seed", 1, "scheduler seed (random scheduler)")
	first := flag.Bool("first", false, "use the deterministic first-enabled scheduler")
	mt := flag.Bool("mt", false, "use the multi-threaded engine")
	flag.Parse()
	if err := run(*model, *file, *n, *steps, *seed, *first, *mt); err != nil {
		fmt.Fprintln(os.Stderr, "bipsim:", err)
		os.Exit(1)
	}
}

func run(model, file string, n, steps int, seed int64, first, mt bool) error {
	var sys *bip.System
	var err error
	switch {
	case file != "":
		src, rerr := os.ReadFile(file)
		if rerr != nil {
			return rerr
		}
		sys, err = bip.Parse(string(src))
	case model != "":
		sys, err = cli.Model(model, n, 2) // the second size is dfinder's -m default
	default:
		return fmt.Errorf("need -model or -f")
	}
	if err != nil {
		return err
	}
	fmt.Println(sys.Stats())

	if mt {
		res, err := bip.RunMT(sys, bip.MTOptions{MaxSteps: steps})
		if err != nil {
			return err
		}
		printTrace(res.Labels, res.Deadlocked)
		if _, err := bip.Replay(sys, res.Moves); err != nil {
			return fmt.Errorf("MT linearization invalid: %w", err)
		}
		fmt.Println("MT linearization validated against reference semantics")
		return nil
	}

	var sched bip.Scheduler = bip.NewRandomScheduler(seed)
	if first {
		sched = bip.FirstScheduler{}
	}
	res, err := bip.Run(sys, bip.RunOptions{
		MaxSteps:  steps,
		Scheduler: sched,
	})
	if err != nil {
		return err
	}
	printTrace(res.Labels, res.Deadlocked)
	return nil
}

// printTrace prints a run's interaction labels, one numbered step a line.
func printTrace(labels []string, deadlocked bool) {
	for i, l := range labels {
		fmt.Printf("%4d  %s\n", i+1, l)
	}
	if deadlocked {
		fmt.Println("-- deadlock --")
	}
}
