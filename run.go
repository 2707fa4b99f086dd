package bip

import "bip/internal/engine"

// Execution: the BIP run-times, re-exported from the engine package.
// Components never communicate directly, only through an engine (§5.6).
type (
	// RunOptions configures a single-threaded run (step bound, scheduler,
	// per-step observer, runtime invariant checking).
	RunOptions = engine.Options
	// RunResult reports a finished single-threaded run.
	RunResult = engine.Result
	// Scheduler resolves non-determinism among enabled moves.
	Scheduler = engine.Scheduler
	// FirstScheduler deterministically picks the first enabled move.
	FirstScheduler = engine.FirstScheduler
	// RandomScheduler picks uniformly with a seeded source.
	RandomScheduler = engine.RandomScheduler
	// MTOptions configures a multi-threaded run.
	MTOptions = engine.MTOptions
	// MTResult reports a finished multi-threaded run, including the
	// committed move sequence for replay validation.
	MTResult = engine.MTResult
)

// ErrInvariantViolated is wrapped by run errors caused by a component
// invariant failing at runtime.
var ErrInvariantViolated = engine.ErrInvariantViolated

// NewRandomScheduler returns a seeded random scheduler (reproducible
// runs).
func NewRandomScheduler(seed int64) *RandomScheduler { return engine.NewRandomScheduler(seed) }

// Run executes sys with the single-threaded engine until deadlock or the
// step bound, deriving each state's moves incrementally from its
// predecessor's. The states it hands to the scheduler and OnStep are
// immutable.
func Run(sys *System, opts RunOptions) (*RunResult, error) { return engine.Run(sys, opts) }

// RunMT executes sys with the multi-threaded engine: each atom runs in
// its own goroutine and a coordinator commits non-conflicting
// interactions concurrently.
func RunMT(sys *System, opts MTOptions) (*MTResult, error) { return engine.RunMT(sys, opts) }

// Replay re-executes a recorded move sequence through the reference
// semantics, verifying that each move was enabled when fired.
func Replay(sys *System, moves []Move) (State, error) { return engine.Replay(sys, moves) }
