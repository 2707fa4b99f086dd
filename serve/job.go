package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"bip"
)

// JobRequest is the POST /v1/jobs body: a textual BIP model, textual
// properties (empty means the default deadlock-freedom check), and the
// exploration knobs. Everything is the public bip surface — the server
// adds no semantics of its own.
type JobRequest struct {
	// Model is the textual DSL source (the contents of a .bip file).
	Model string `json:"model"`
	// Properties are textual properties as accepted by bip.ParseProp
	// ("always(l.n <= 10)", ...). Empty checks deadlock-freedom.
	Properties []string   `json:"properties,omitempty"`
	Options    JobOptions `json:"options"`
}

// JobOptions are the textual exploration settings — bipd's wire shape
// and the flags bipc and dfinder share — and Options is their one
// lowering to bip.Option values. Workers, Order, Seen, MemBudget and
// TimeoutMS tune resources only — the engine pins that verdicts are
// identical across them — so they are deliberately NOT part of the
// result cache key (see fingerprint). MaxStates and Reduce change the
// report and ARE keyed. Under order "det" one worker explores on the
// FIFO frontier whatever Workers says; Workers speeds up only order
// "fast" (the same loop on work-stealing deques), and is clamped to the
// host's GOMAXPROCS. Order "fast" with Workers omitted explores with
// one worker, which is the FIFO frontier again.
type JobOptions struct {
	Workers   int    `json:"workers,omitempty"`
	Order     string `json:"order,omitempty"` // "det" (default) | "fast"
	Seen      string `json:"seen,omitempty"`  // "exact" (default) | "compact"
	MaxStates int    `json:"max_states,omitempty"`
	MemBudget int64  `json:"mem_budget,omitempty"`
	Reduce    bool   `json:"reduce,omitempty"`
	// TimeoutMS bounds the job's wall clock; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Options validates the settings and lowers them to bip.Option values:
// negative numbers and unknown order or seen names are errors. The
// timeout is only validated here; the caller turns it into a context
// (bip.WithContext).
func (o JobOptions) Options() ([]bip.Option, error) {
	var opts []bip.Option
	if o.Workers < 0 {
		return nil, fmt.Errorf("workers must be >= 0, got %d", o.Workers)
	}
	if o.Workers > 0 {
		// The work-stealing frontier runs one goroutine and one
		// exploration context per worker, so the request may not size
		// the pool past the host's parallelism. Workers are outside the
		// cache key, so clamping changes no verdict.
		opts = append(opts, bip.Workers(min(o.Workers, runtime.GOMAXPROCS(0))))
	}
	switch o.Order {
	case "", "det":
	case "fast":
		opts = append(opts, bip.Unordered())
	default:
		return nil, fmt.Errorf("unknown order %q (want det or fast)", o.Order)
	}
	switch o.Seen {
	case "", "exact":
	case "compact":
		opts = append(opts, bip.CompactSeen())
	default:
		return nil, fmt.Errorf("unknown seen %q (want exact or compact)", o.Seen)
	}
	if o.MaxStates < 0 {
		return nil, fmt.Errorf("max_states must be >= 0, got %d", o.MaxStates)
	}
	if o.MaxStates > 0 {
		opts = append(opts, bip.MaxStates(o.MaxStates))
	}
	if o.MemBudget < 0 {
		return nil, fmt.Errorf("mem_budget must be >= 0, got %d", o.MemBudget)
	}
	if o.MemBudget > 0 {
		opts = append(opts, bip.MemBudget(o.MemBudget))
	}
	if o.Reduce {
		opts = append(opts, bip.Reduce())
	}
	if o.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be >= 0, got %d", o.TimeoutMS)
	}
	return opts, nil
}

// Job lifecycle states as they appear on the wire.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobView is the wire representation of a job: GET /v1/jobs/{id}
// returns one, and POST /v1/jobs returns the initial view.
type JobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Cached marks a job answered from the report cache without an
	// exploration.
	Cached bool `json:"cached,omitempty"`
	// Recovered marks a job restored from the journal after a restart:
	// either re-queued (it was queued or running at the crash) or served
	// directly from the on-disk report store.
	Recovered bool   `json:"recovered,omitempty"`
	Error     string `json:"error,omitempty"`
	// StatesPerSec is the exploration rate over the last progress tick.
	StatesPerSec float64     `json:"states_per_sec,omitempty"`
	Progress     *bip.Stats  `json:"progress,omitempty"`
	Report       *bip.Report `json:"report,omitempty"`
	// Lint carries the static-analysis findings for the submitted
	// model (submissions are auto-linted; see POST /v1/lint for the
	// standalone endpoint). Advisory: warnings never block a job.
	Lint []bip.Diagnostic `json:"lint,omitempty"`
}

// Event is one SSE payload on GET /v1/jobs/{id}/events: progress
// snapshots while running, then a single terminal event carrying the
// outcome.
type Event struct {
	State        string      `json:"state"`
	StatesPerSec float64     `json:"states_per_sec,omitempty"`
	Progress     *bip.Stats  `json:"progress,omitempty"`
	Report       *bip.Report `json:"report,omitempty"`
	Error        string      `json:"error,omitempty"`
}

// job is the server-side state of one verification run. The mutex
// covers every mutable field; done is closed exactly once on reaching
// a terminal state, which is how SSE subscribers learn the outcome
// without a broadcast that could be dropped.
type job struct {
	id      string
	fp      string
	sys     *bip.System
	opts    []bip.Option // semantic options; ctx/progress added per run
	timeout time.Duration
	// lint holds the submission's auto-lint findings; set once before
	// the job is published, then read-only.
	lint []bip.Diagnostic
	// verify is the engine entry point, bip.Verify unless a test
	// substitutes a misbehaving engine to exercise panic isolation. Set
	// before the job is published, then read-only.
	verify func(sys *bip.System, opts ...bip.Option) (*bip.Report, error)
	// recovered marks a journal-restored job; set before publication.
	recovered bool

	mu           sync.Mutex
	state        string
	cached       bool
	panicked     bool
	errMsg       string
	progress     *bip.Stats
	statesPerSec float64
	lastStats    bip.Stats
	lastTick     time.Time
	report       *bip.Report
	cancel       context.CancelFunc
	subs         map[chan Event]struct{}
	done         chan struct{}
}

func newJob(id, fp string, sys *bip.System, opts []bip.Option, timeout time.Duration) *job {
	return &job{
		id: id, fp: fp, sys: sys, opts: opts, timeout: timeout,
		state: StateQueued,
		subs:  make(map[chan Event]struct{}),
		done:  make(chan struct{}),
	}
}

// view snapshots the job for the wire.
func (jb *job) view() JobView {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return JobView{
		ID: jb.id, State: jb.state, Cached: jb.cached, Recovered: jb.recovered,
		Error: jb.errMsg, StatesPerSec: jb.statesPerSec, Progress: jb.progress,
		Report: jb.report, Lint: jb.lint,
	}
}

// terminalEvent builds the final SSE payload; call only after done is
// closed.
func (jb *job) terminalEvent() Event {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return Event{State: jb.state, Report: jb.report, Error: jb.errMsg}
}

func (jb *job) subscribe(ch chan Event) {
	jb.mu.Lock()
	jb.subs[ch] = struct{}{}
	jb.mu.Unlock()
}

func (jb *job) unsubscribe(ch chan Event) {
	jb.mu.Lock()
	delete(jb.subs, ch)
	jb.mu.Unlock()
}

// onProgress is the bip.WithProgress callback: it refreshes the view,
// derives states/sec from the tick delta, and fans the snapshot out to
// SSE subscribers. Slow subscribers lose intermediate snapshots (the
// send never blocks the exploration); the terminal event is delivered
// through the done channel instead, so it cannot be dropped.
func (jb *job) onProgress(st bip.Stats) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	now := time.Now()
	if !jb.lastTick.IsZero() {
		if dt := now.Sub(jb.lastTick).Seconds(); dt > 0 {
			jb.statesPerSec = float64(st.States-jb.lastStats.States) / dt
		}
	}
	jb.lastTick, jb.lastStats = now, st
	cp := st
	jb.progress = &cp
	ev := Event{State: StateRunning, StatesPerSec: jb.statesPerSec, Progress: &cp}
	for ch := range jb.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finish moves the job to a terminal state. Idempotent: the first
// terminal transition wins (a DELETE racing the natural completion).
func (jb *job) finish(state string, rep *bip.Report, errMsg string) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.state == StateDone || jb.state == StateFailed || jb.state == StateCanceled {
		return false
	}
	jb.state, jb.report, jb.errMsg = state, rep, errMsg
	close(jb.done)
	return true
}

// requestCancel asks a queued or running job to stop. A queued job is
// finished on the spot (the worker skips it); a running job has its
// context canceled and reaches StateCanceled as soon as the engine
// observes the cancellation — within one progress tick. Returns false
// for already-terminal jobs.
func (jb *job) requestCancel() bool {
	jb.mu.Lock()
	switch jb.state {
	case StateQueued:
		jb.mu.Unlock()
		return jb.finish(StateCanceled, nil, "canceled before start")
	case StateRunning:
		cancel := jb.cancel
		jb.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	}
	jb.mu.Unlock()
	return false
}

// callVerify runs the engine behind a recover barrier: a panicking
// exploration must take down one job, not the worker that hosts it and
// with it the whole pool. The captured stack rides the failed job's
// error so the defect is debuggable from the job view alone.
func (jb *job) callVerify(opts []bip.Option) (rep *bip.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			jb.mu.Lock()
			jb.panicked = true
			jb.mu.Unlock()
			rep = nil
			err = fmt.Errorf("internal: panic during verification: %v\n%s", p, debug.Stack())
		}
	}()
	verify := jb.verify
	if verify == nil {
		verify = bip.Verify
	}
	return verify(jb.sys, opts...)
}

// recoveredPanic reports whether the run ended in a recovered engine
// panic; the worker feeds it into the service-level counter.
func (jb *job) recoveredPanic() bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.panicked
}

// run executes the verification with cancellation and deadline wired
// through bip.WithContext, reporting progress every tick. It returns
// the terminal state it reached.
func (jb *job) run(tick time.Duration) string {
	jb.mu.Lock()
	if jb.state != StateQueued { // canceled while queued
		st := jb.state
		jb.mu.Unlock()
		return st
	}
	ctx, cancel := context.WithCancel(context.Background())
	if jb.timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), jb.timeout)
	}
	jb.cancel = cancel
	jb.state = StateRunning
	jb.mu.Unlock()
	defer cancel()

	opts := make([]bip.Option, 0, len(jb.opts)+2)
	opts = append(opts, jb.opts...)
	opts = append(opts, bip.WithContext(ctx), bip.WithProgress(tick, jb.onProgress))
	rep, err := jb.callVerify(opts)
	switch {
	case err == nil:
		jb.finish(StateDone, rep, "")
	case errors.Is(err, context.Canceled):
		jb.finish(StateCanceled, nil, "canceled")
	case errors.Is(err, context.DeadlineExceeded):
		jb.finish(StateFailed, nil, fmt.Sprintf("timeout after %s", jb.timeout))
	default:
		jb.finish(StateFailed, nil, err.Error())
	}
	jb.mu.Lock()
	st := jb.state
	jb.mu.Unlock()
	return st
}
