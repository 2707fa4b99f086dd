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
	"flag"
	"fmt"
	"time"

	"bip"
	"bip/check"
	"bip/cmd/internal/cli"
	"bip/models"
)

func main() {
	model := flag.String("model", "philosophers", cli.ModelNames())
	n := flag.Int("n", 4, "size parameter (philosophers/ring stations/pumps/floors/buffer capacity/max temperature)")
	m := flag.Int("m", 2, "second size parameter (gas station customers/temperature rod rest ticks)")
	mono := flag.Bool("mono", false, "also run the monolithic streaming deadlock checker")
	traps := flag.Int("traps", 0, "max interaction invariants (0 = auto)")
	f := cli.Register(flag.CommandLine)
	flag.Parse()
	f.Exit("dfinder", run(*model, *n, *m, *mono, *traps, f))
}

func run(model string, n, m int, mono bool, maxTraps int, f *cli.Flags) error {
	opts, cancel, err := f.Options()
	if err != nil {
		return err
	}
	defer cancel()
	sys, err := cli.Model(model, n, m)
	if err != nil {
		return err
	}
	fmt.Println(sys.Stats())

	if err := f.LintModel(sys, model); err != nil {
		return err
	}
	if len(f.Props) > 0 {
		rep, err := bip.Verify(sys, f.WithProps(opts)...)
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
	rep, err := bip.Verify(ctl, append(opts, bip.Deadlock())...)
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
	fmt.Printf("monolithic   (%.2fms): %d states, %d transitions streamed%s [%s] — %s\n",
		float64(time.Since(t1).Microseconds())/1000, rep.States, rep.Transitions, reduced, cli.Memory(rep), verdict)
	return nil
}
