// Package cli holds what the bip command-line front ends share: the
// exploration, lint and property flags of bipc and dfinder, lowered
// through bipd's serve.JobOptions so that every front end validates and
// lowers the settings identically, and the built-in model table of
// dfinder and bipsim.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"bip"
	"bip/check"
	"bip/lint"
	"bip/models"
	"bip/prop"
	"bip/serve"
)

// Flags are the settings bipc and dfinder share. The exploration
// settings parse straight into Job, bipd's textual form of them.
type Flags struct {
	Job     serve.JobOptions
	Timeout time.Duration
	Lint    bool
	Werror  bool
	Props   []prop.Prop
}

// Register defines the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Job.Workers, "workers", runtime.NumCPU(), "work-stealing workers for -order fast, capped at GOMAXPROCS (default: all CPUs; negative is an error); -order det explores sequentially")
	fs.StringVar(&f.Job.Order, "order", "det", "exploration order: det (sequential, deterministic stream) | fast (work-stealing over -workers; same verdicts, scheduling-dependent numbering)")
	fs.StringVar(&f.Job.Seen, "seen", "exact", "visited-state storage: exact (full keys) | compact (hash-compacted: an 8-byte hash per state, ~19 B/state sequentially)")
	fs.Int64Var(&f.Job.MemBudget, "mem", 0, "frontier memory budget in bytes for -order fast, whose work-stealing frontier spills to disk past it (0 = unbounded; negative, or positive without -order fast, is an error)")
	fs.IntVar(&f.Job.MaxStates, "max-states", 0, fmt.Sprintf("exploration bound (0 = library default, %d; negative is an error)", check.DefaultMaxStates))
	fs.BoolVar(&f.Job.Reduce, "reduce", false, "ample-set partial-order reduction (degrades to full expansion when a property needs it)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "wall-clock bound shared by every exploration (0 = none; negative is an error); timed-out runs exit non-zero")
	fs.BoolVar(&f.Lint, "lint", false, "run static model analysis (bip/lint) before any exploration and print the diagnostics")
	fs.BoolVar(&f.Werror, "Werror", false, "with -lint (implied): exit non-zero when lint reports any warning")
	fs.Func("prop", "textual property to check on the fly (repeatable): always/never/until/after/between/reachable/deadlockfree", func(src string) error {
		p, err := bip.ParseProp(src)
		if err == nil {
			f.Props = append(f.Props, p)
		}
		return err
	})
	return f
}

// Options lowers the exploration flags through serve.JobOptions.Options
// (negative -workers, -max-states, -mem and -timeout are errors, as is
// a positive -mem without -order fast) and
// adds the -timeout context, whose cancel the caller defers.
func (f *Flags) Options() ([]bip.Option, context.CancelFunc, error) {
	job := f.Job
	job.TimeoutMS = f.Timeout.Milliseconds()
	if f.Timeout < 0 {
		job.TimeoutMS = min(job.TimeoutMS, -1)
	}
	opts, err := job.Options()
	if err != nil || f.Timeout == 0 {
		return opts, func() {}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), f.Timeout)
	return append(opts, bip.WithContext(ctx)), cancel, nil
}

// WithProps appends the -prop properties to opts.
func (f *Flags) WithProps(opts []bip.Option) []bip.Option {
	for _, p := range f.Props {
		opts = append(opts, bip.Prop(p))
	}
	return opts
}

// Memory renders a report's memory accounting: the seen-set footprint,
// the frontier high-water mark, and the spill counter when the frontier
// spilled.
func Memory(rep *bip.Report) string {
	s := fmt.Sprintf("seen-set %d B, frontier peak %d B", rep.SeenBytes, rep.PeakFrontierBytes)
	if rep.SpilledChunks > 0 {
		s += fmt.Sprintf(", %d chunks spilled", rep.SpilledChunks)
	}
	return s
}

// LintModel runs the static analyzer on sys when -lint or -Werror is
// set, printing each diagnostic under name. Under -Werror any warning
// is an error.
func (f *Flags) LintModel(sys *bip.System, name string) error {
	if !f.Lint && !f.Werror {
		return nil
	}
	diags, err := bip.Lint(sys)
	if err != nil {
		return err
	}
	for _, d := range diags {
		fmt.Println(d.Render(name))
	}
	if len(diags) == 0 {
		fmt.Printf("lint: %s is clean\n", name)
	}
	if f.Werror && lint.HasWarnings(diags) {
		return fmt.Errorf("%s: lint reported warnings (-Werror)", name)
	}
	return nil
}

// Exit reports err, if any, as prog's failure and exits non-zero.
func (f *Flags) Exit(prog string, err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("timed out after %s (-timeout): %w", f.Timeout, err)
	}
	fmt.Fprintln(os.Stderr, prog+":", err)
	os.Exit(1)
}

// builtins is the model table behind -model: n is the size parameter,
// m the second one (gas station customers, temperature rod rest ticks).
var builtins = []struct {
	name  string
	build func(n, m int) (*bip.System, error)
}{
	{"philosophers", func(n, _ int) (*bip.System, error) { return models.Philosophers(n) }},
	{"philosophers2p", func(n, _ int) (*bip.System, error) { return models.PhilosophersDeadlocking(n) }},
	{"tokenring", func(n, _ int) (*bip.System, error) { return models.TokenRing(n) }},
	{"gasstation", models.GasStation},
	{"elevator", func(n, _ int) (*bip.System, error) { return models.Elevator(n) }},
	{"prodcons", func(n, _ int) (*bip.System, error) { return models.ProducerConsumer(int64(n)) }},
	{"temperature", func(n, m int) (*bip.System, error) { return models.Temperature(0, int64(n), int64(m)) }},
}

// ModelNames lists the built-in models as -model help shows them.
func ModelNames() string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	return strings.Join(names, " | ")
}

// Model builds the built-in model name with sizes n and m.
func Model(name string, n, m int) (*bip.System, error) {
	for _, b := range builtins {
		if b.name == name {
			return b.build(n, m)
		}
	}
	return nil, fmt.Errorf("unknown model %q (want %s)", name, ModelNames())
}
