package lts

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bip/internal/core"
)

// This file implements streaming (on-the-fly) exploration: one
// breadth-first worker loop that builds no data structure of its own
// but emits an event stream into a Sink. Materializing the full LTS
// (Explore) is just one sink; the on-the-fly checkers in check.go are
// others.
//
// The loop is written once and parameterised by its frontier only:
//
//   - Deterministic order, or one worker: a FIFO queue drained by one
//     worker on the calling goroutine. Ids follow BFS discovery order,
//     so every sink sees the same stream at any Options.Workers value,
//     and the cycle proviso can be level-bounded (see expandFlush).
//   - Unordered order with Workers > 1: per-worker chunked deques with
//     steal-half balancing and an optional disk spill (wsteal.go).
//
// The frontier also admits states (reserves ids under MaxStates) and
// decides when the exploration is over: the FIFO with plain counters
// and an empty queue, the deques with a CAS on the id counter and an
// in-flight counter. Everything else is shared: expansion through the
// WorkerExpander, dedup through lock-striped SeenSets, a
// record-then-flush of each expansion's events under one sink mutex,
// the frontier high-water marks, cancellation polled once per
// expansion, a rate-limited Progress meter ticked by whichever worker
// finishes an expansion, and the Stats assembly. On the FIFO the stripe
// and sink locks are nil: its one worker is all there is to exclude,
// so its loop runs no atomic read-modify-write at all.
//
// The memory contract is what makes streaming matter for the biggest
// workloads: the loop retains materialized states, move tables and
// counterexample-path nodes only for the frontier (admitted but not yet
// expanded states). Once a state is expanded its machinery is released
// — what remains per visited state is what the SeenSet stores. A
// checker that early-exits on the first violation therefore runs in
// O(frontier) live memory instead of the O(statespace) states, edges
// and BFS tree the materialized LTS retains, and never pays for the
// part of the space behind the violation.

// DefaultMaxStates is the exploration bound applied when
// Options.MaxStates is zero. Every entry point — the library drivers and
// the command-line tools — routes its default through this constant, so
// CLIs and library agree.
const DefaultMaxStates = 1 << 20

// DefaultProgressEvery is the interval between Options.Progress
// callbacks when Options.ProgressEvery is zero. Ten snapshots a second
// is enough for a live progress stream while keeping the callback cost
// invisible next to state expansion.
const DefaultProgressEvery = 100 * time.Millisecond

// progressStride is how many expansions a worker lets pass between
// clock reads when rate-limiting Progress callbacks: one time.Now per
// stride instead of per state keeps the hook free on the hot path while
// still honoring ProgressEvery to within a few expansions.
const progressStride = 16

// ErrStop is the sentinel a Sink returns to end exploration early
// without reporting an error (a checker found its violation, a collector
// has all it needs). Stream swallows it: it returns nil after a
// sink-requested stop, with Stats.Stopped set.
var ErrStop = errors.New("lts: stop exploration")

// Order selects the event-stream discipline of a multi-worker
// exploration. It trades scheduling freedom against stream determinism;
// the explored state *set*, the edge set, the truncation flag and every
// checker verdict (violated / conclusive) are identical either way —
// only state numbering, event order and therefore which particular
// counterexample is reported may differ under Unordered.
type Order int

const (
	// Deterministic (the default) emits the breadth-first event stream
	// of one worker on the FIFO frontier: same state numbering, edges,
	// BFS tree, truncation — bit-identical sinks. Options.Workers has no
	// effect (DESIGN.md records why there is no deterministic parallel
	// exploration).
	Deterministic Order = iota
	// Unordered with Workers > 1 runs the loop on work-stealing deques
	// (wsteal.go): per-worker chunked deques with steal-half balancing
	// and no barrier anywhere on the hot path. Events are emitted as
	// expansion completes, so state numbering and stream order vary run
	// to run; the relaxed Sink contract below still holds. Prefer it
	// whenever only verdicts, the state set, or canonical analyses
	// matter.
	Unordered
)

// OrderSink is an optional Sink extension: Stream announces the
// stream order it is about to produce before the first event, so
// order-sensitive sinks (AutomatonCheck, DeadlockCheck) can pick the
// matching bookkeeping. Sinks that do not implement it must either be
// order-insensitive or be used only with deterministic streams.
// NewMulti forwards the announcement to every child.
type OrderSink interface {
	SetStreamOrder(Order)
}

// announceOrder tells an order-aware sink which stream to expect.
func announceOrder(sink Sink, o Order) {
	if os, ok := sink.(OrderSink); ok {
		os.SetStreamOrder(o)
	}
}

// Sink consumes the exploration event stream. With Options.Order ==
// Deterministic (the default), events arrive in the order of a
// single-worker breadth-first search, regardless of Options.Workers:
//
//   - OnState(id, …) once per admitted state, in increasing id order (the
//     initial state is id 0). The state is a materialized snapshot the
//     sink may retain.
//   - OnEdge(from, to, label) once per transition, grouped by source:
//     `from` is non-decreasing, and all edges of a state are emitted
//     between its OnState and its OnExpanded. Edges to states rejected by
//     the MaxStates bound are not emitted (matching the materialized
//     LTS), but such suppressed successors still count in OnExpanded's
//     move count.
//   - OnExpanded(id, moves) after state id's expansion completes, in
//     increasing id order; moves is the number of enabled moves at the
//     state, so moves == 0 identifies a deadlock even when the bound
//     truncated the edge stream.
//   - Done(truncated) once, after the full (possibly truncated)
//     exploration — but not after an ErrStop.
//
// With Options.Order == Unordered and Workers > 1, the work-stealing
// frontier relaxes the ordering only: ids are still dense and unique,
// OnState(0) is still the first event, every state's OnState still
// precedes both every OnEdge mentioning it (either endpoint) and its
// own OnExpanded — but ids arrive in no particular order, edges of one
// state need not be contiguous, and a late cross edge may even arrive
// after its source's OnExpanded. Stream announces the order through
// OrderSink before the first event.
//
// Methods are never called concurrently. Returning ErrStop ends the
// exploration early; any other error aborts it and is returned by
// Stream.
type Sink interface {
	OnState(id int, st core.State, d Discovery) error
	OnEdge(from, to int, label string) error
	OnExpanded(id, moves int) error
	Done(truncated bool) error
}

// pathNode is one edge of the frontier-resident BFS tree: the label of
// the discovery transition plus the parent state's node. Nodes are
// reachable only through the Discovery handles of frontier states (and
// through their children's nodes), so the tree shrinks to the ancestors
// of the live frontier as exploration proceeds — expanded branches are
// garbage-collected instead of being retained for the whole run.
type pathNode struct {
	parent *pathNode
	label  string
}

// Discovery describes how a state was first reached: the BFS-tree edge
// (Parent, Label) and a handle on the frontier-resident path back to the
// initial state. The zero Discovery (Parent == -1) is the initial state.
type Discovery struct {
	// Parent is the id of the state whose expansion discovered this one;
	// -1 for the initial state.
	Parent int
	// Label is the interaction label of the discovery transition; empty
	// for the initial state.
	Label string

	node *pathNode
}

// Path returns the interaction labels leading from the initial state to
// the discovered state along the BFS tree — the same path the
// materialized LTS reconstructs with PathTo.
func (d Discovery) Path() []string {
	n := 0
	for p := d.node; p != nil; p = p.parent {
		n++
	}
	out := make([]string, n)
	for p := d.node; p != nil; p = p.parent {
		n--
		out[n] = p.label
	}
	return out
}

// Stats summarizes a streaming run. It is JSON-round-trippable (every
// field carries a wire tag): bipd streams Stats snapshots as progress
// events and serializes them into job views, so the struct doubles as a
// wire shape — keep the tags stable.
type Stats struct {
	// States is the number of states announced to the sink (OnState
	// calls). On a run that ends normally that is every admitted state;
	// on a stopped run it counts exactly the states the sink was shown,
	// including the one whose OnState stopped it — successors the
	// stopping expansion admitted but never announced are not counted.
	States int `json:"states"`
	// Transitions is the number of edges emitted.
	Transitions int `json:"transitions"`
	// PeakFrontier is the streaming memory high-water mark experiment
	// E16 compares against the materialized state count: the maximum
	// number of states in flight at once — admitted but not yet
	// expanded and flushed, wherever the state is buffered (the one
	// being expanded included). It is raised exactly, on both
	// frontiers, each time an expansion hands its successors over;
	// under Unordered it varies from run to run.
	PeakFrontier int `json:"peak_frontier"`
	// PeakFrontierBytes prices PeakFrontier in bytes under the
	// frontierEntryBytes accounting model (key width + flat per-atom /
	// per-interaction machinery estimate), so EXPERIMENTS.md memory
	// claims are measured against one reproducible model. Under a
	// MemBudget it prices the RESIDENT peak: states parked in the spill
	// file are excluded, which is exactly what MemBudget bounds.
	PeakFrontierBytes int64 `json:"peak_frontier_bytes"`
	// SeenBytes is the dedup layer's final memory footprint, summed
	// over stripes (see SeenSet.Bytes) — the number the E20 experiment
	// compares between ExactSeen and CompactSeen.
	SeenBytes int64 `json:"seen_bytes"`
	// ExactPromotions counts membership answers where CompactSeen's
	// exact-promotion tier overruled a colliding discriminator; 0 for
	// exact dedup and for compact dedup at full discriminator width.
	ExactPromotions int64 `json:"exact_promotions"`
	// SpilledChunks counts frontier chunks the work-stealing frontier
	// serialized to the spill file under Options.MemBudget (each chunk
	// is written once and read back once).
	SpilledChunks int64 `json:"spilled_chunks"`
	// Truncated reports that the MaxStates bound cut the exploration.
	Truncated bool `json:"truncated"`
	// Stopped reports that the sink ended the exploration early with
	// ErrStop.
	Stopped bool `json:"stopped"`

	// Reduction counters, nonzero only when Options.Expander reduces
	// (expand.go). AmpleStates counts states expanded with a strict
	// ample subset of their enabled moves; PrunedMoves counts the
	// enabled moves those expansions did not pursue; ProvisoFallbacks
	// counts states where an ample choice was escalated to full
	// expansion by the cycle proviso (an ample successor was already
	// admitted at or below the current BFS level — any admitted one on
	// the work-stealing frontier).
	AmpleStates      int `json:"ample_states"`
	PrunedMoves      int `json:"pruned_moves"`
	ProvisoFallbacks int `json:"proviso_fallbacks"`

	// ReductionDegradedBy names the property whose visibility forced a
	// reduction request back to full expansion. Stream never sets
	// it — bip.Verify stamps it on progress snapshots and the final
	// report, so the wire shape carries the cause wherever Stats goes.
	ReductionDegradedBy string `json:"reduction_degraded_by,omitempty"`
}

// Stream explores the reachable state space of sys breadth-first and
// feeds the event stream to sink. Options.Order == Unordered with
// Options.Workers > 1 runs the loop on work-stealing deques
// (wsteal.go); every other configuration runs it at one worker on a
// FIFO queue, whose stream is the deterministic one. Stream returns
// once the space is exhausted, the MaxStates bound is hit, or the sink
// stops it.
func Stream(sys *core.System, opts Options, sink Sink) (Stats, error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	// The seen sets and the frontier entries store state ids as int32;
	// make that limit explicit instead of overflowing.
	if maxStates > math.MaxInt32 {
		maxStates = math.MaxInt32
	}
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	order := Unordered
	if workers <= 1 || opts.Order != Unordered {
		// One worker produces the deterministic stream by construction,
		// whatever Order asks for — announce what the sink will see.
		order, workers = Deterministic, 1
	}
	announceOrder(sink, order)

	d := &driver{
		sys:        sys,
		maxStates:  maxStates,
		sink:       sink,
		entryBytes: frontierEntryBytes(sys),
		stats:      Stats{States: 1},
	}
	d.raisePeaks(1, 1)
	d.cond = sync.NewCond(&d.idleMu)
	d.shards, d.mask = newShards(workers, opts.seenSets(), sys.BinaryKeyWidth())
	if opts.Progress != nil {
		d.progress = &progressMeter{fn: opts.Progress, every: opts.ProgressEvery, last: time.Now()}
		if d.progress.every <= 0 {
			d.progress.every = DefaultProgressEvery
		}
	}

	init := sys.Initial()
	initVec, err := sys.EnabledVector(init)
	if err != nil {
		return d.snapshot(), fmt.Errorf("explore state 0: %w", err)
	}
	key := sys.AppendBinaryKey(nil, init)
	h0 := hashKey(key)
	d.shards[h0&d.mask].seen.Add(h0, key, 0)
	root := pentry{state: init, vec: initVec}
	levelLast := int32(math.MaxInt32) // deques: any admitted successor escalates
	if order == Deterministic {
		d.front, levelLast = &fifo{d: d, q: []pentry{root}, n: 1}, 0
	} else {
		d.front, d.sinkMu = newDeques(d, workers, &opts, root), new(sync.Mutex)
		if d.spill != nil {
			defer d.spill.close()
		}
		d.setAnnounced(0)
	}
	if err := sink.OnState(0, init, Discovery{Parent: -1}); err != nil {
		stats := d.snapshot()
		return stats, stats.finish(err)
	}

	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = &worker{id: i, d: d, ctx: sys.NewExploreCtx(), exp: opts.newWorkerExpander(sys), levelLast: levelLast}
	}
	// Worker 0 runs on the calling goroutine: the one-worker FIFO run
	// starts no goroutine at all.
	var wg sync.WaitGroup
	for _, w := range ws[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(opts.Ctx)
		}()
	}
	ws[0].run(opts.Ctx)
	wg.Wait()

	stats := d.snapshot()
	if d.err != nil {
		return stats, stats.finish(d.err)
	}
	return stats, stats.finish(sink.Done(stats.Truncated))
}

// frontierEntryBytes is the per-resident-state accounting model behind
// Stats.PeakFrontierBytes and Options.MemBudget: the fixed-width dedup
// key plus a flat estimate of the frontier machinery a pending state
// keeps materialized — the entry struct and BFS-tree node (~128 B),
// per-atom state storage (location header + variable store, ~48 B per
// atom), and the per-interaction move-table headers (~24 B each). It
// deliberately ignores model-dependent variance (large per-move choice
// vectors, string contents) so the same state always costs the same:
// budgets and the E20 measurements stay reproducible.
func frontierEntryBytes(sys *core.System) int64 {
	return int64(sys.BinaryKeyWidth()) + 128 +
		48*int64(len(sys.Atoms)) + 24*int64(len(sys.Interactions))
}

// finish folds a sink return value into the run outcome: ErrStop is a
// normal early termination, anything else an error.
func (s *Stats) finish(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrStop) {
		s.Stopped = true
		return nil
	}
	return err
}

// rejectedID marks a successor refused by MaxStates: it is recorded
// only to drop its edge and flag the run truncated, and never enters
// the seen set — once the bound is reached every later admission fails
// too, so meeting the key again yields the same rejection.
const rejectedID int32 = -1

// pentry is one frontier-resident state: its materialized state, move
// table, BFS-tree node and id. Entries are stored by value in the
// frontier's own slices and chunks and zeroed when taken, so a pending
// state costs no allocation beyond its state, table and node, and an
// expanded one leaves nothing behind but what the SeenSet stores.
type pentry struct {
	state core.State
	vec   [][]core.Move
	node  *pathNode
	id    int32
}

// frontier is the loop's one parameter: where admitted entries wait
// for expansion, and when the exploration is over. admit reserves the
// next state id, bounded by MaxStates (the admitted count is
// schedule-independent; which keys win the race near the bound is not,
// under several workers). next hands worker w its next entry, false
// once the exploration has terminated or stopped. stage returns the
// buffer w appends one expansion's fresh successors to, and push makes
// them available to every worker — until then no worker can take them
// — retires the expanded entry, and raises the driver's frontier
// high-water marks. A frontier that lets workers sleep must wake on
// driver.notify.
type frontier interface {
	admit() (int32, bool)
	next(w *worker) (pentry, bool)
	stage(w *worker) *[]pentry
	push(w *worker)
}

// fifo is the deterministic frontier: a FIFO queue drained by a single
// worker, so states are expanded in admission (BFS) order. q[head] is
// the next entry; expanded slots are zeroed and the window is compacted
// once the dead prefix dominates, so live memory tracks the frontier,
// not the visited set. Its one worker is the only one to touch it, so
// it counts with plain integers, and an empty queue is the end.
type fifo struct {
	d    *driver
	q    []pentry
	head int
	n    int32 // admitted states; ids are 0..n-1
}

func (f *fifo) admit() (int32, bool) {
	if int(f.n) >= f.d.maxStates {
		return rejectedID, false
	}
	f.n++
	return f.n - 1, true
}

// stage hands out the queue itself: its one worker takes nothing
// before the expansion that stages ends, so successors are admitted in
// place, with no copy to push or clear.
func (f *fifo) stage(*worker) *[]pentry { return &f.q }

// push has nothing to publish; the in-flight states are the queued ones
// plus the one just expanded.
func (f *fifo) push(*worker) {
	in := int64(len(f.q) - f.head + 1)
	f.d.raisePeaks(in, in)
}

// next also advances the worker's BFS level bound. levelLast is the id
// of the last state of the level being expanded: when the head moves
// past it, every state of the next level has already been admitted (BFS
// discovers level d+1 entirely while expanding level d), so the bound
// advances to the last admitted id.
func (f *fifo) next(w *worker) (pentry, bool) {
	if f.head == len(f.q) {
		return pentry{}, false
	}
	e := f.q[f.head]
	f.q[f.head] = pentry{}
	f.head++
	if f.head > 64 && f.head*2 >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q = f.q[:n]
		f.head = 0
	}
	if e.id > w.levelLast {
		w.levelLast = f.n - 1
	}
	return e, true
}

// shard is one lock stripe of the dedup layer: a SeenSet holding every
// admitted state, guarded by mu.
type shard struct {
	mu   *sync.Mutex
	seen SeenSet
}

// newShards sizes the lock-striped dedup layer for a worker count, one
// SeenSet stripe per shard. A single worker gets a single stripe that
// it alone touches, so it has no lock.
func newShards(workers int, seen SeenSets, keyWidth int) ([]shard, uint64) {
	nShards := 1
	for workers > 1 && nShards < workers*8 && nShards < 256 {
		nShards <<= 1
	}
	shards := make([]shard, nShards)
	for i := range shards {
		shards[i].seen = seen.NewSeenSet(keyWidth)
		if workers > 1 {
			shards[i].mu = new(sync.Mutex)
		}
	}
	return shards, uint64(nShards - 1)
}

// lock and unlock take mu unless it is nil. The locks of what only one
// worker ever touches — the stripe and the sink of a FIFO run, whose
// single worker is the calling goroutine (Progress callbacks included)
// — are nil: an uncontended lock is still an atomic instruction, and a
// full fence, on every successor.
func lock(mu *sync.Mutex) {
	if mu != nil {
		mu.Lock()
	}
}

func unlock(mu *sync.Mutex) {
	if mu != nil {
		mu.Unlock()
	}
}

// parkedEdge is an edge held back until its target is announced (see
// driver.parked).
type parkedEdge struct {
	from  int32
	label string
}

// progressMeter rate-limits Options.Progress. Workers tick it after
// each expansion; mu keeps the callback from running concurrently with
// itself — a worker that finds it held skips the tick instead of
// queueing behind it.
type progressMeter struct {
	fn    func(Stats)
	every time.Duration
	mu    sync.Mutex
	last  time.Time // guarded by mu
}

// driver is the shared state of one exploration.
type driver struct {
	sys       *core.System
	maxStates int
	sink      Sink
	front     frontier
	progress  *progressMeter // nil without Options.Progress

	shards []shard
	mask   uint64

	// Spill machinery (nil/0 unless the deque frontier runs under
	// Options.MemBudget, wsteal.go): spill holds the chunks written out
	// (spill.go), and spilled counts the in-flight states parked there.
	// entryBytes prices one in-flight state.
	spill      *wsSpill
	memBudget  int64
	entryBytes int64
	spilled    atomic.Int64

	stopped atomic.Bool
	// peak and residentPeak are the high-water marks of the in-flight
	// states (admitted, not yet expanded and pushed) and of their share
	// not parked in the spill file, raised by the frontier's push.
	peak, residentPeak atomic.Int64

	sinkMu *sync.Mutex // nil on the FIFO
	// stats holds the counters the flush maintains (States counts
	// OnState calls, plus Transitions, Truncated and the reduction
	// counters), guarded by sinkMu. Counting at the flush rather than at
	// admission keeps a stopped run's figures exactly what the sink was
	// shown.
	stats Stats
	// announced is a bitset over state ids whose OnState has been
	// emitted; parked holds edges that reached a state before its
	// OnState (drained and deleted at announcement). Both are guarded by
	// sinkMu, and both are only needed when several workers race: the
	// FIFO (sinkMu nil) keeps neither.
	announced []uint64
	parked    map[int32][]parkedEdge

	failOnce sync.Once
	err      error // first terminal error (ErrStop included); set via fail

	idleMu sync.Mutex
	cond   *sync.Cond
	gen    uint64
}

// snapshot assembles the run's Stats: the flush counters and peaks
// under a brief sinkMu hold, and the seen-set footprint from one pass
// over the stripes under their own locks. It serves both Progress
// callbacks and the final result.
func (d *driver) snapshot() Stats {
	lock(d.sinkMu)
	s := d.stats
	unlock(d.sinkMu)
	s.PeakFrontier = int(d.peak.Load())
	s.PeakFrontierBytes = d.residentPeak.Load() * d.entryBytes
	if d.spill != nil {
		s.SpilledChunks = d.spill.written()
	}
	for i := range d.shards {
		sh := &d.shards[i]
		lock(sh.mu)
		s.SeenBytes += sh.seen.Bytes()
		s.ExactPromotions += sh.seen.Promotions()
		unlock(sh.mu)
	}
	return s
}

// raisePeaks raises the high-water marks to in in-flight states, of
// which resident are not in the spill file. A mark only rises, so its
// CAS runs only when it does; otherwise the FIFO pays two plain loads.
func (d *driver) raisePeaks(in, resident int64) {
	raise(&d.peak, in)
	raise(&d.residentPeak, resident)
}

func raise(mark *atomic.Int64, v int64) {
	for old := mark.Load(); v > old && !mark.CompareAndSwap(old, v); old = mark.Load() {
	}
}

// setAnnounced marks id's OnState as emitted (caller holds sinkMu).
func (d *driver) setAnnounced(id int32) {
	w := int(id) >> 6
	for len(d.announced) <= w {
		d.announced = append(d.announced, 0)
	}
	d.announced[w] |= 1 << (uint(id) & 63)
}

// isAnnounced reports whether id's OnState has been emitted (caller
// holds sinkMu).
func (d *driver) isAnnounced(id int32) bool {
	w := int(id) >> 6
	return w < len(d.announced) && d.announced[w]&(1<<(uint(id)&63)) != 0
}

// notify wakes idle workers after new work was published, the in-flight
// counter hit zero, or the run was stopped.
func (d *driver) notify() {
	d.idleMu.Lock()
	d.gen++
	d.cond.Broadcast()
	d.idleMu.Unlock()
}

// fail records the first terminal condition (sink ErrStop, sink error,
// expansion or spill error, cancellation) and stops every worker.
func (d *driver) fail(err error) {
	d.failOnce.Do(func() {
		d.err = err
		d.stopped.Store(true)
		d.notify()
	})
}

// moveRec is one recorded move of an expansion, flushed to the sink
// after the state is fully expanded: its interaction (the label's
// index) and its target. A fresh target — one this expansion created
// and will announce — has its entry in the staged successors, in move
// order. The record holds no pointer, so recording it costs no GC
// write barrier.
type moveRec struct {
	inter    int32
	targetID int32
	fresh    bool
}

// worker is one exploration worker. The fields after levelLast are the
// deque frontier's private state (wsteal.go).
type worker struct {
	id   int
	d    *driver
	ctx  *core.ExploreCtx
	exp  WorkerExpander
	recs []moveRec
	born []pentry // the deques' staging buffer (see frontier.stage)
	skip int      // expansions left before the next Progress clock read
	// levelLast bounds the cycle proviso: an already-admitted successor
	// escalates the expansion only if its id is <= levelLast. The FIFO
	// keeps it at the end of the current BFS level; on the deques it
	// stays at MaxInt32 (any admitted successor escalates).
	levelLast int32

	cur    *wsChunk // private mixed push/pop chunk, invisible to thieves
	spare  *wsChunk // small freelist
	steal  []*wsChunk
	keyBuf []byte // spill read/write scratch
}

// run is the worker main loop: take an entry, poll for cancellation,
// expand and flush it, tick the progress meter.
func (w *worker) run(ctx context.Context) {
	d := w.d
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		e, ok := d.front.next(w)
		if !ok {
			return
		}
		select {
		case <-done:
			d.fail(ctx.Err())
			return
		default:
		}
		if err := w.expandFlush(&e); err != nil {
			d.fail(err)
			return
		}
		if d.progress != nil {
			w.tickProgress()
		}
	}
}

// tickProgress fires the Progress callback if the interval has
// elapsed, reading the clock only every progressStride expansions.
func (w *worker) tickProgress() {
	if w.skip > 0 {
		w.skip--
		return
	}
	w.skip = progressStride
	p := w.d.progress
	if !p.mu.TryLock() {
		return
	}
	if now := time.Now(); now.Sub(p.last) >= p.every {
		p.last = now
		p.fn(w.d.snapshot())
	}
	p.mu.Unlock()
}

// expandFlush expands one entry, flushes its events to the sink, and
// enqueues its fresh successors.
func (w *worker) expandFlush(e *pentry) error {
	d, ctx := w.d, w.ctx
	moves, nAmple, err := w.exp.Expand(ctx, e.state, e.vec)
	if err != nil {
		return fmt.Errorf("explore state %d: %w", e.id, err)
	}
	recs := w.recs[:0]
	q := d.front.stage(w)
	staged := *q
	mark := len(staged)
	// Explore the ample prefix; escalate to the full move list if an
	// ample successor turns out to be already admitted at or below
	// levelLast (cycle proviso, condition C3 — see expand.go).
	explore := nAmple
	for mi := 0; mi < explore; mi++ {
		m := moves[mi]
		view, err := ctx.Scratch.Exec(e.state, m)
		if err != nil {
			return fmt.Errorf("explore state %d: %w", e.id, err)
		}
		ctx.Key = d.sys.AppendBinaryKey(ctx.Key[:0], *view)
		h := hashKey(ctx.Key)
		sh := &d.shards[h&d.mask]

		lock(sh.mu)
		id, dup := sh.seen.Find(h, ctx.Key)
		created := false
		if !dup {
			if id, created = d.front.admit(); created {
				sh.seen.Add(h, ctx.Key, id)
			}
		}
		unlock(sh.mu)

		if dup && id <= w.levelLast && explore < len(moves) {
			explore = len(moves)
		}
		recs = append(recs, moveRec{inter: int32(m.Interaction), targetID: id, fresh: created})
		if created {
			// The fresh entry is private to this worker until it is
			// pushed below; thieves first observe it through the deque
			// mutexes.
			st := ctx.Scratch.MaterializeSlab(m, ctx.Slab)
			vec, err := ctx.Deriver.DeriveSlab(e.vec, m, st, ctx.Slab)
			if err != nil {
				return fmt.Errorf("explore state %d: %w", e.id, err)
			}
			staged = append(staged, pentry{state: st, vec: vec, node: &pathNode{parent: e.node, label: d.sys.Label(m)}, id: id})
		}
	}
	// Write the buffers back only when they changed: an unchanged
	// slice header would cost GC write barriers for nothing.
	if cap(recs) != cap(w.recs) {
		w.recs = recs
	}
	if len(staged) != mark {
		*q = staged
	}

	lock(d.sinkMu)
	if d.stopped.Load() {
		// The sink already settled (or the run failed): emit nothing
		// more; counters no longer matter.
		unlock(d.sinkMu)
		return nil
	}
	err = d.flushLocked(e, recs, staged[mark:], len(moves), nAmple, explore)
	if err != nil {
		// Stop before releasing the sink: no other worker may flush
		// after an ErrStop or a sink error.
		d.fail(err)
	}
	unlock(d.sinkMu)
	if err != nil {
		return err
	}
	d.front.push(w)
	return nil
}

// flushLocked emits one expansion's events under the sink mutex and
// counts them into d.stats: fresh targets are announced (OnState) and
// drain any edges parked on them, edges to announced targets are
// emitted directly, edges to not-yet-announced targets are parked, and
// edges to bound-rejected successors are dropped (matching the
// materialized LTS) but mark the run truncated. At one worker every
// target is announced by the time its edge is flushed — in an earlier
// flush, or earlier in this one — so the FIFO skips the bookkeeping.
func (d *driver) flushLocked(e *pentry, recs []moveRec, born []pentry, moves, ample, explored int) error {
	s := &d.stats
	solo := d.sinkMu == nil
	for i := range recs {
		r := &recs[i]
		id := r.targetID
		if id == rejectedID {
			s.Truncated = true
			continue
		}
		label := d.sys.Interactions[r.inter].Name
		if r.fresh {
			t := &born[0]
			born = born[1:]
			s.States++
			if err := d.sink.OnState(int(id), t.state, Discovery{Parent: int(e.id), Label: label, node: t.node}); err != nil {
				return err
			}
			if !solo {
				d.setAnnounced(id)
				pes := d.parked[id]
				delete(d.parked, id)
				for _, pe := range pes {
					s.Transitions++
					if err := d.sink.OnEdge(int(pe.from), int(id), pe.label); err != nil {
						return err
					}
				}
			}
		}
		if solo || d.isAnnounced(id) {
			s.Transitions++
			if err := d.sink.OnEdge(int(e.id), int(id), label); err != nil {
				return err
			}
		} else {
			if d.parked == nil {
				d.parked = make(map[int32][]parkedEdge)
			}
			d.parked[id] = append(d.parked[id], parkedEdge{from: e.id, label: label})
		}
	}
	if ample < moves {
		if explored == moves {
			s.ProvisoFallbacks++
		} else {
			s.AmpleStates++
			s.PrunedMoves += moves - ample
		}
	}
	return d.sink.OnExpanded(int(e.id), moves)
}
