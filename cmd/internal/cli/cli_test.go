package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"bip"
	"bip/models"
	"bip/serve"
)

// parse registers the shared flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	return f, fs.Parse(args)
}

// outcome is the part of a report every exploration setting may
// change but scheduling may not.
type outcome struct {
	states, transitions    int
	truncated, reduced, ok bool
}

func verify(t *testing.T, sys *bip.System, opts []bip.Option) outcome {
	t.Helper()
	rep, err := bip.Verify(sys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return outcome{rep.States, rep.Transitions, rep.Truncated, rep.Reduced, rep.OK}
}

// TestFlagsLowerLikeJobOptions pins that each flag value parses into
// the JobOptions field bipd reads, and that the CLI lowering explores
// exactly as that JobOptions' own lowering does.
func TestFlagsLowerLikeJobOptions(t *testing.T) {
	rings, err := models.PhilosopherRings(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := models.ControlOnly(rings)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want serve.JobOptions
	}{
		{[]string{"-workers", "0"}, serve.JobOptions{Order: "det", Seen: "exact"}},
		{[]string{"-workers", "0", "-order", "fast"}, serve.JobOptions{Order: "fast", Seen: "exact"}},
		{[]string{"-workers", "1000", "-order", "fast"}, serve.JobOptions{Workers: 1000, Order: "fast", Seen: "exact"}},
		{[]string{"-workers", "0", "-seen", "compact"}, serve.JobOptions{Order: "det", Seen: "compact"}},
		{[]string{"-workers", "0", "-max-states", "5"}, serve.JobOptions{Order: "det", Seen: "exact", MaxStates: 5}},
		{[]string{"-workers", "0", "-mem", "4096", "-order", "fast"}, serve.JobOptions{Order: "fast", Seen: "exact", MemBudget: 4096}},
		{[]string{"-workers", "0", "-reduce"}, serve.JobOptions{Order: "det", Seen: "exact", Reduce: true}},
	} {
		f, err := parse(t, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if f.Job != tc.want {
			t.Fatalf("%v: parsed %+v, want %+v", tc.args, f.Job, tc.want)
		}
		got, cancel, err := f.Options()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		cancel()
		want, err := tc.want.Options()
		if err != nil {
			t.Fatalf("%+v: %v", tc.want, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d options, JobOptions lowers to %d", tc.args, len(got), len(want))
		}
		if g, w := verify(t, sys, got), verify(t, sys, want); g != w {
			t.Fatalf("%v: explores as %+v, JobOptions as %+v", tc.args, g, w)
		}
	}
	// The lowering is not the identity: the bound and reduction show.
	bounded, _ := parse(t, "-max-states", "5", "-reduce")
	opts, _, err := bounded.Options()
	if err != nil {
		t.Fatal(err)
	}
	if o := verify(t, sys, opts); !o.truncated || !o.reduced {
		t.Fatalf("-max-states 5 -reduce explored as %+v", o)
	}
}

// TestFlagsRejectBadValues pins that negative numbers and unknown order
// or seen names are errors, as bipd answers them with 400.
func TestFlagsRejectBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-max-states", "-5"},
		{"-mem", "-7"},
		{"-mem", "4096"},
		{"-mem", "4096", "-order", "det"},
		{"-workers", "-1"},
		{"-timeout", "-1ms"},
		{"-timeout", "-1ns"},
		{"-order", "compact"},
		{"-order", "bogus"},
		{"-seen", "fast"},
		{"-seen", "bogus"},
	} {
		f, err := parse(t, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if _, _, err := f.Options(); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}

// TestTimeoutAndProps covers the two flags JobOptions.Options does not
// lower: -timeout becomes a context option, and -prop parses each
// repetition up front.
func TestTimeoutAndProps(t *testing.T) {
	f, err := parse(t, "-workers", "0", "-timeout", "1m", "-prop", "deadlockfree", "-prop", "always(true)")
	if err != nil {
		t.Fatal(err)
	}
	if f.Timeout != time.Minute || len(f.Props) != 2 {
		t.Fatalf("parsed timeout %v, %d props", f.Timeout, len(f.Props))
	}
	opts, cancel, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if len(opts) != 1 {
		t.Fatalf("-timeout lowered to %d options, want the context alone", len(opts))
	}
	if got := len(f.WithProps(opts)); got != 3 {
		t.Fatalf("WithProps: %d options, want 3", got)
	}
	if _, err := parse(t, "-prop", "bogus("); err == nil {
		t.Fatal("malformed -prop accepted")
	}
}

// TestModelTable pins that every built-in model builds, validates and
// lints clean under -Werror, and that an unknown name lists them all.
func TestModelTable(t *testing.T) {
	werror := &Flags{Werror: true}
	names := strings.Split(ModelNames(), " | ")
	if len(names) != len(builtins) {
		t.Fatalf("ModelNames lists %d models, table has %d", len(names), len(builtins))
	}
	for _, name := range names {
		sys, err := Model(name, 3, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sys.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := werror.LintModel(sys, name); err != nil {
			t.Fatal(err)
		}
	}
	_, err := Model("gcd", 3, 2)
	if err == nil {
		t.Fatal("unknown model built")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %s", err, name)
		}
	}
}
