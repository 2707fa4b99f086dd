package lts

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bip/internal/core"
)

// This file implements the work-stealing explorer behind Stream when
// Options.Workers > 1 and Options.Order == Unordered. There is no
// barrier anywhere on the hot path:
//
//   - Pending states live in per-worker deques of fixed-size chunks. A
//     worker pushes and pops its newest chunk privately (no lock, good
//     locality); full chunks are published to the worker's deque under
//     a per-deque mutex, and a worker that runs dry steals the OLDEST
//     half of a victim's published chunks (steal-half balancing: one
//     steal rebalances log-many imbalances, and taking the old end
//     keeps thieves off the owner's working set). A worker whose deque
//     is empty publishes its private chunk early, so work never hides
//     in a private buffer while peers starve.
//
//   - Dedup goes through lock-striped SeenSet stripes (seenset.go),
//     one mutex hold per successor, and admission is immediate: a
//     fresh state CASes the next id from a global counter
//     (or becomes a rejected tombstone once the MaxStates bound is
//     reached — the admitted state COUNT matches the sequential driver
//     exactly, though which states are admitted depends on schedule)
//     and is recorded in the stripe under the same lock hold. The
//     frontier entry itself is transient: once expanded and flushed it
//     is dropped, so per visited state only the SeenSet's storage
//     persists (plus one announced bit and any still-parked edges).
//
//   - With Options.MemBudget set, the frontier spills: whenever the
//     resident pending states exceed the budget (priced by
//     frontierEntryBytes), whole published chunks are serialized to a
//     temporary file — each pending state is reduced to its
//     fixed-width binary key (recomputed from the state, so nothing
//     extra is stored) plus its id and RAM-resident path node — and
//     workers that run out of resident work stream chunks back in,
//     rebuilding state and move table from the key (spill.go). The
//     in-flight termination counter is spill-agnostic: spilled states
//     stay admitted-but-unflushed, so the counter reaches zero only
//     when the spill file has drained too.
//
//   - Termination is a global in-flight counter: +1 per admitted state,
//     -1 once a state's expansion has been flushed and its children
//     enqueued (children are incremented at admission, strictly before
//     the parent's decrement, so the counter can only reach zero when
//     no state is pending anywhere). Idle workers sleep on a condition
//     variable whose generation is bumped by every publish, by the
//     final decrement and by stop/error.
//
//   - The sink is fed from the workers themselves: after expanding a
//     state, a worker flushes its recorded events under one global sink
//     mutex (sink methods are never called concurrently). Fresh
//     successors' OnState events are emitted in the flush of the
//     expansion that created them — before the children are enqueued,
//     so a child's own events always come later — and an edge whose
//     target has not been announced yet is parked on the target entry
//     and emitted right after the target's OnState. This yields the
//     relaxed-but-sound Unordered contract documented on Sink.
//
// What is preserved versus the deterministic stream: the reachable
// state set, the edge set, the truncation flag, the admitted state
// count, and therefore every checker verdict that does not depend on
// exploration order (deadlock-freedom, invariant validity,
// reachability, observer-automaton verdicts — all of them fixpoints of
// the explored graph). What varies with schedule: state numbering,
// event order, PeakFrontier, and which particular violation/witness is
// reported first. The differential tests compare canonically-sorted
// LTSs and every verdict at several worker counts to pin exactly this
// contract.
//
// One amendment under a reducing Expander (expand.go): the cycle
// proviso here escalates on ANY already-admitted successor — without
// levels there is no finer admitted-earlier test — so which states get
// fully expanded, and therefore the reduced state SET itself, depends
// on the schedule. The reduction is sound for every schedule (the
// escalation rule is strictly more eager than the sequential
// driver's), so verdicts are still preserved; only the reduced graph's
// shape varies. The sequential driver keeps its deterministic reduced
// stream.

// rejectedID is the seen-set id of a state refused by MaxStates: a
// tombstone, never an edge target.
const rejectedID int32 = -1

// pentry is one frontier-resident state: its materialized state, move
// table and BFS-tree node, its id and, once expanded, its enabled-move
// count. Entries live only while the state is pending — once expanded
// and flushed the entry is stripped and dropped; what persists per
// visited state is whatever the SeenSet stores.
type pentry struct {
	state core.State
	vec   [][]core.Move
	node  *pathNode
	moves int32
	id    int32
}

// parkedEdge is an edge held back until its target is announced (see
// wsDriver.parked).
type parkedEdge struct {
	from  int32
	label string
}

// shard is one lock stripe of the dedup layer: a SeenSet holding every
// admitted (or bound-rejected) state, guarded by mu.
type shard struct {
	mu   sync.Mutex
	seen SeenSet
}

// newShards sizes the lock-striped dedup layer for a worker count, one
// SeenSet stripe per shard.
func newShards(workers int, seen SeenSets, keyWidth int) ([]shard, uint64) {
	nShards := 1
	for nShards < workers*8 {
		nShards <<= 1
	}
	if nShards > 256 {
		nShards = 256
	}
	shards := make([]shard, nShards)
	for i := range shards {
		shards[i].seen = seen.NewSeenSet(keyWidth)
	}
	return shards, uint64(nShards - 1)
}

// seenTotals sums the dedup layer's footprint and promotion count.
func seenTotals(shards []shard) (bytes, promotions int64) {
	for i := range shards {
		bytes += shards[i].seen.Bytes()
		promotions += shards[i].seen.Promotions()
	}
	return bytes, promotions
}

// wsChunkCap is the deque chunk size: the steal granularity and the
// batch in which work is published.
const wsChunkCap = 32

// wsChunk is one chunk of pending entries, treated as a stack.
type wsChunk struct {
	e [wsChunkCap]*pentry
	n int
}

// wsDeque is one worker's published work: a stack of chunks. The owner
// pushes/pops at the top; thieves steal from the bottom (oldest).
type wsDeque struct {
	mu        sync.Mutex
	chunks    []*wsChunk
	published atomic.Int32 // len(chunks), readable without the lock
}

// push publishes a full (or shed) chunk.
func (q *wsDeque) push(c *wsChunk) {
	q.mu.Lock()
	q.chunks = append(q.chunks, c)
	q.published.Store(int32(len(q.chunks)))
	q.mu.Unlock()
}

// pop takes the newest published chunk (owner side).
func (q *wsDeque) pop() *wsChunk {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.chunks)
	if n == 0 {
		return nil
	}
	c := q.chunks[n-1]
	q.chunks[n-1] = nil
	q.chunks = q.chunks[:n-1]
	q.published.Store(int32(n - 1))
	return c
}

// takeOldest removes the single oldest published chunk (spill side):
// the states least likely to be wanted soon, mirroring where thieves
// steal.
func (q *wsDeque) takeOldest() *wsChunk {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.chunks)
	if n == 0 {
		return nil
	}
	c := q.chunks[0]
	rest := copy(q.chunks, q.chunks[1:])
	q.chunks[rest] = nil
	q.chunks = q.chunks[:rest]
	q.published.Store(int32(rest))
	return c
}

// stealHalf removes the oldest half of the published chunks (thief
// side). Only one deque lock is ever held at a time, so cross-steals
// cannot deadlock.
func (q *wsDeque) stealHalf(buf []*wsChunk) []*wsChunk {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.chunks)
	if n == 0 {
		return buf
	}
	take := (n + 1) / 2
	buf = append(buf, q.chunks[:take]...)
	rest := copy(q.chunks, q.chunks[take:])
	for i := rest; i < n; i++ {
		q.chunks[i] = nil
	}
	q.chunks = q.chunks[:rest]
	q.published.Store(int32(rest))
	return buf
}

// wsRec is one recorded move of an expansion, flushed to the sink after
// the state is fully expanded. target is non-nil only for fresh
// successors (the expansion that created a state announces it); edges
// to previously admitted states carry the bare id.
type wsRec struct {
	target   *pentry
	targetID int32
	label    string
	fresh    bool // this expansion created (and will announce) the target
}

// wsDriver is the shared state of one work-stealing exploration.
type wsDriver struct {
	sys       *core.System
	maxStates int
	sink      Sink

	shards []shard
	mask   uint64
	deques []wsDeque

	// Spill machinery (nil/0 unless Options.MemBudget > 0): resident
	// counts admitted-but-unflushed states currently in RAM (spilled
	// ones excluded), entryBytes prices one of them, and spill holds
	// the chunks written out (spill.go).
	spill      *wsSpill
	memBudget  int64
	entryBytes int64

	states       atomic.Int64 // admitted states (ids are 0..states-1)
	inflight     atomic.Int64 // admitted but not yet expanded+flushed
	peak         atomic.Int64 // high-water mark of inflight
	resident     atomic.Int64 // inflight minus states parked in the spill file
	residentPeak atomic.Int64 // high-water mark of resident
	truncated    atomic.Bool
	stopped      atomic.Bool

	sinkMu      sync.Mutex
	transitions int // guarded by sinkMu
	// announced is a bitset over state ids whose OnState has been
	// emitted; parked holds edges that reached a state before its
	// OnState (drained and deleted at announcement). Both are guarded
	// by sinkMu — together they replace the per-entry flags so that
	// expanded entries can be dropped entirely.
	announced []uint64
	parked    map[int32][]parkedEdge

	failOnce sync.Once
	err      error // first terminal error (ErrStop included); set via fail

	idleMu sync.Mutex
	cond   *sync.Cond
	gen    uint64
}

// progressSnapshot assembles a best-effort Stats snapshot for the
// Options.Progress ticker goroutine: counters come from the atomics,
// Transitions from a brief sinkMu hold, and the seen-set footprint from
// one pass over the stripes under their own locks. States/Transitions
// are monotonic across snapshots; the memory figures are whatever the
// stripes hold at the instant of the pass.
func (d *wsDriver) progressSnapshot() Stats {
	d.sinkMu.Lock()
	tr := d.transitions
	d.sinkMu.Unlock()
	s := Stats{
		States:       int(d.states.Load()),
		Transitions:  tr,
		PeakFrontier: int(d.peak.Load()),
		Truncated:    d.truncated.Load(),
	}
	s.PeakFrontierBytes = d.residentPeak.Load() * d.entryBytes
	if d.spill != nil {
		s.SpilledChunks = d.spill.written()
	}
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		s.SeenBytes += sh.seen.Bytes()
		s.ExactPromotions += sh.seen.Promotions()
		sh.mu.Unlock()
	}
	return s
}

// setAnnounced marks id's OnState as emitted (caller holds sinkMu).
func (d *wsDriver) setAnnounced(id int32) {
	w := int(id) >> 6
	for len(d.announced) <= w {
		d.announced = append(d.announced, 0)
	}
	d.announced[w] |= 1 << (uint(id) & 63)
}

// isAnnounced reports whether id's OnState has been emitted (caller
// holds sinkMu).
func (d *wsDriver) isAnnounced(id int32) bool {
	w := int(id) >> 6
	return w < len(d.announced) && d.announced[w]&(1<<(uint(id)&63)) != 0
}

// notify wakes idle workers after new work was published, the in-flight
// counter hit zero, or the run was stopped.
func (d *wsDriver) notify() {
	d.idleMu.Lock()
	d.gen++
	d.cond.Broadcast()
	d.idleMu.Unlock()
}

// fail records the first terminal condition (sink ErrStop, sink error,
// or expansion error) and stops every worker.
func (d *wsDriver) fail(err error) {
	d.failOnce.Do(func() {
		d.err = err
		d.stopped.Store(true)
		d.notify()
	})
}

// admit reserves the next state id, bounded by MaxStates. The admitted
// count matches the sequential driver's exactly; which keys win the
// race near the bound is schedule-dependent.
func (d *wsDriver) admit() (int32, bool) {
	for {
		n := d.states.Load()
		if int(n) >= d.maxStates {
			d.truncated.Store(true)
			return rejectedID, false
		}
		if d.states.CompareAndSwap(n, n+1) {
			in := d.inflight.Add(1)
			for {
				p := d.peak.Load()
				if in <= p || d.peak.CompareAndSwap(p, in) {
					break
				}
			}
			r := d.resident.Add(1)
			for {
				p := d.residentPeak.Load()
				if r <= p || d.residentPeak.CompareAndSwap(p, r) {
					break
				}
			}
			return int32(n), true
		}
	}
}

// wsWorker is one work-stealing worker.
type wsWorker struct {
	id     int
	ctx    *core.ExploreCtx
	exp    WorkerExpander
	cur    *wsChunk // private mixed push/pop chunk, invisible to thieves
	spare  *wsChunk // small freelist
	recs   []wsRec
	steal  []*wsChunk
	keyBuf []byte // spill read/write scratch

	// Per-worker reduction counters, summed into Stats after the join.
	ampleStates      int
	prunedMoves      int
	provisoFallbacks int
}

func (w *wsWorker) newChunk() *wsChunk {
	if c := w.spare; c != nil {
		w.spare = nil
		return c
	}
	return new(wsChunk)
}

// pushLocal enqueues an admitted entry. Full private chunks are
// published; so is a multi-entry private chunk while the worker's deque
// is empty, to keep work stealable during narrow phases. Publishing is
// also the spill point: while the resident frontier exceeds the memory
// budget, the worker sheds its own oldest published chunks to disk.
func (w *wsWorker) pushLocal(d *wsDriver, e *pentry) {
	c := w.cur
	if c == nil {
		c = w.newChunk()
		w.cur = c
	}
	c.e[c.n] = e
	c.n++
	if c.n == wsChunkCap || (c.n > 1 && d.deques[w.id].published.Load() == 0) {
		d.deques[w.id].push(c)
		w.cur = nil
		d.notify()
		w.maybeSpill(d)
	}
}

// maybeSpill sheds the worker's oldest published chunks to the spill
// file while the resident frontier is over budget. Only the worker's
// own deque is tapped — peers over budget shed on their own next
// publish — and the loop stops as soon as there is nothing published
// left to shed (the private chunk and in-expansion states stay
// resident).
func (w *wsWorker) maybeSpill(d *wsDriver) {
	if d.spill == nil {
		return
	}
	for d.resident.Load()*d.entryBytes > d.memBudget {
		c := d.deques[w.id].takeOldest()
		if c == nil {
			return
		}
		err := d.spill.write(d.sys, c, w)
		n := c.n
		*c = wsChunk{}
		if w.spare == nil {
			w.spare = c
		}
		if err != nil {
			d.fail(err)
			return
		}
		d.resident.Add(int64(-n))
		// Wake sleepers: the chunk left the deques between their scan
		// and their wait, and only the spill file knows about it now.
		d.notify()
	}
}

// next returns the next entry to expand, stealing and sleeping as
// needed; nil means the exploration terminated (or stopped).
func (w *wsWorker) next(d *wsDriver) *pentry {
	for {
		if d.stopped.Load() {
			return nil
		}
		if c := w.cur; c != nil && c.n > 0 {
			c.n--
			e := c.e[c.n]
			c.e[c.n] = nil
			return e
		}
		if w.takeWork(d) {
			continue
		}
		// Record the wake generation, then scan once more: a publish
		// between the failed scan and the wait would otherwise be lost.
		d.idleMu.Lock()
		g := d.gen
		d.idleMu.Unlock()
		if w.takeWork(d) {
			continue
		}
		if d.inflight.Load() == 0 {
			d.notify() // release the other sleepers
			return nil
		}
		// A stop that landed before the snapshot above bumped gen
		// already and will not notify again: check stopped as well.
		d.idleMu.Lock()
		for d.gen == g && !d.stopped.Load() {
			d.cond.Wait()
		}
		d.idleMu.Unlock()
	}
}

// takeWork refills the private chunk from the worker's own deque or by
// stealing half of a victim's published chunks.
func (w *wsWorker) takeWork(d *wsDriver) bool {
	if w.cur != nil && w.cur.n == 0 && w.spare == nil {
		w.spare, w.cur = w.cur, nil
	}
	if c := d.deques[w.id].pop(); c != nil {
		w.cur = c
		return true
	}
	n := len(d.deques)
	for i := 1; i < n; i++ {
		v := (w.id + i) % n
		if d.deques[v].published.Load() == 0 {
			continue
		}
		w.steal = d.deques[v].stealHalf(w.steal[:0])
		if len(w.steal) == 0 {
			continue
		}
		w.cur = w.steal[0]
		for _, c := range w.steal[1:] {
			d.deques[w.id].push(c)
		}
		if len(w.steal) > 1 {
			d.notify()
		}
		return true
	}
	// Nothing resident anywhere: stream a spilled chunk back in. Disk
	// is last on purpose — resident work drains before reloads widen
	// the frontier again.
	if d.spill != nil {
		rec := d.spill.take()
		if rec != nil {
			c, err := w.reload(d, rec)
			if err != nil {
				d.fail(err)
				return false
			}
			w.cur = c
			d.resident.Add(int64(c.n))
			return true
		}
	}
	return false
}

// reload rebuilds one spilled chunk: each state is decoded from its
// fixed-width binary key and its move table recomputed from scratch —
// the price of eviction is one EnabledVector per reloaded state.
func (w *wsWorker) reload(d *wsDriver, rec *wsSpillRec) (*wsChunk, error) {
	buf, err := d.spill.read(rec, w.keyBuf[:0])
	w.keyBuf = buf
	if err != nil {
		return nil, err
	}
	c := w.newChunk()
	width := d.sys.BinaryKeyWidth()
	for i := 0; i < rec.n; i++ {
		st, err := d.sys.StateFromBinaryKey(w.keyBuf[i*width : (i+1)*width])
		if err != nil {
			return nil, fmt.Errorf("spill reload state %d: %w", rec.ids[i], err)
		}
		vec, err := d.sys.EnabledVector(st)
		if err != nil {
			return nil, fmt.Errorf("spill reload state %d: %w", rec.ids[i], err)
		}
		c.e[i] = &pentry{id: rec.ids[i], state: st, vec: vec, node: rec.nodes[i]}
	}
	c.n = rec.n
	return c, nil
}

// run is the worker main loop.
func (w *wsWorker) run(d *wsDriver, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		e := w.next(d)
		if e == nil {
			return
		}
		if err := w.expandFlush(d, e); err != nil {
			d.fail(err)
			return
		}
	}
}

// expandFlush expands one entry, flushes its events to the sink, and
// enqueues its fresh successors. The in-flight decrement comes last, so
// the counter cannot reach zero while this state's children are still
// unaccounted.
func (w *wsWorker) expandFlush(d *wsDriver, e *pentry) error {
	ctx := w.ctx
	moves, nAmple, err := w.exp.Expand(ctx, e.state, e.vec)
	if err != nil {
		return fmt.Errorf("explore state %d: %w", e.id, err)
	}
	e.moves = int32(len(moves))
	recs := w.recs[:0]
	// Explore the ample prefix; any successor already admitted (by any
	// worker, at any time) escalates to the full move list — the
	// work-stealing cycle proviso (see the file comment and expand.go).
	explore := nAmple
	for mi := 0; mi < explore; mi++ {
		m := moves[mi]
		view, err := ctx.Scratch.Exec(e.state, m)
		if err != nil {
			return fmt.Errorf("explore state %d: %w", e.id, err)
		}
		label := d.sys.Label(m)
		ctx.Key = d.sys.AppendBinaryKey(ctx.Key[:0], *view)
		h := hashKey(ctx.Key)
		sh := &d.shards[h&d.mask]

		sh.mu.Lock()
		id, dup := sh.seen.Find(h, ctx.Key)
		created := false
		if !dup {
			var ok bool
			id, ok = d.admit()
			sh.seen.Add(h, ctx.Key, id)
			created = ok
		}
		sh.mu.Unlock()

		if dup && id != rejectedID && explore < len(moves) {
			explore = len(moves)
		}
		var t *pentry
		if created {
			// The fresh entry is private to this worker until it is
			// enqueued below; thieves first observe it through the deque
			// mutexes.
			t = &pentry{id: id, state: ctx.Scratch.MaterializeSlab(m, ctx.Slab)}
			vec, err := ctx.Deriver.DeriveSlab(e.vec, m, t.state, ctx.Slab)
			if err != nil {
				return fmt.Errorf("explore state %d: %w", e.id, err)
			}
			t.vec = vec
			t.node = &pathNode{parent: e.node, label: label}
		}
		recs = append(recs, wsRec{target: t, targetID: id, label: label, fresh: created})
	}
	w.recs = recs
	if nAmple < len(moves) {
		if explore == len(moves) {
			w.provisoFallbacks++
		} else {
			w.ampleStates++
			w.prunedMoves += len(moves) - nAmple
		}
	}

	d.sinkMu.Lock()
	if d.stopped.Load() {
		// The sink already settled (or the run failed): emit nothing
		// more; counters no longer matter.
		d.sinkMu.Unlock()
		return nil
	}
	err = d.flushLocked(e, recs)
	d.sinkMu.Unlock()
	if err != nil {
		return err
	}

	// The expanded entry is dropped entirely — per visited state only
	// the SeenSet's storage persists; the path nodes of its children
	// stay alive through their own node chains.
	e.state = core.State{}
	e.vec = nil
	e.node = nil

	for _, r := range recs {
		if r.fresh {
			w.pushLocal(d, r.target)
		}
	}
	d.resident.Add(-1)
	if d.inflight.Add(-1) == 0 {
		d.notify()
	}
	return nil
}

// flushLocked emits one expansion's events under the sink mutex: fresh
// targets are announced (OnState) and drain any edges parked on them,
// edges to announced targets are emitted directly, edges to
// not-yet-announced targets are parked, and edges to bound-rejected
// tombstones are dropped (matching the sequential driver). The
// announced bitset and the parked map are only ever touched here, under
// the mutex.
func (d *wsDriver) flushLocked(e *pentry, recs []wsRec) error {
	for _, r := range recs {
		id := r.targetID
		if id == rejectedID {
			continue
		}
		if r.fresh {
			t := r.target
			if err := d.sink.OnState(int(id), t.state, Discovery{Parent: int(e.id), Label: r.label, node: t.node}); err != nil {
				return err
			}
			d.setAnnounced(id)
			if pes, ok := d.parked[id]; ok {
				for _, pe := range pes {
					d.transitions++
					if err := d.sink.OnEdge(int(pe.from), int(id), pe.label); err != nil {
						return err
					}
				}
				delete(d.parked, id)
			}
		}
		if d.isAnnounced(id) {
			d.transitions++
			if err := d.sink.OnEdge(int(e.id), int(id), r.label); err != nil {
				return err
			}
		} else {
			d.parked[id] = append(d.parked[id], parkedEdge{from: e.id, label: r.label})
		}
	}
	return d.sink.OnExpanded(int(e.id), int(e.moves))
}

func streamWorkSteal(sys *core.System, opts Options, workers, maxStates int, sink Sink) (Stats, error) {
	d := &wsDriver{
		sys:        sys,
		maxStates:  maxStates,
		sink:       sink,
		deques:     make([]wsDeque, workers),
		parked:     make(map[int32][]parkedEdge),
		memBudget:  opts.MemBudget,
		entryBytes: frontierEntryBytes(sys),
	}
	d.cond = sync.NewCond(&d.idleMu)
	d.shards, d.mask = newShards(workers, opts.seenSets(), sys.BinaryKeyWidth())
	if d.memBudget > 0 {
		d.spill = newWsSpill(sys.BinaryKeyWidth(), opts.fs())
		defer d.spill.close()
	}
	d.states.Store(1)
	d.inflight.Store(1)
	d.peak.Store(1)
	d.resident.Store(1)
	d.residentPeak.Store(1)

	init := sys.Initial()
	initVec, err := sys.EnabledVector(init)
	if err != nil {
		return Stats{States: 1, PeakFrontier: 1}, fmt.Errorf("explore state 0: %w", err)
	}
	key := sys.AppendBinaryKey(nil, init)
	e0 := &pentry{state: init, vec: initVec, id: 0}
	h0 := hashKey(key)
	d.shards[h0&d.mask].seen.Add(h0, key, 0)
	d.setAnnounced(0)

	if err := sink.OnState(0, init, Discovery{Parent: -1}); err != nil {
		stats := Stats{States: 1, PeakFrontier: 1}
		return stats, stats.finish(err)
	}

	if opts.Progress != nil {
		// The ticker goroutine is the one Progress source of this
		// driver: workers never meet a common point to tick from, so a
		// clock drives the snapshots instead. It exits with the run;
		// a tick may race the final sink.Done, which the Progress
		// contract allows (see Options.Progress).
		stopProg := make(chan struct{})
		defer close(stopProg)
		go func() {
			t := time.NewTicker(opts.progressEvery())
			defer t.Stop()
			for {
				select {
				case <-stopProg:
					return
				case <-t.C:
					opts.Progress(d.progressSnapshot())
				}
			}
		}()
	}

	if done := opts.ctxDone(); done != nil {
		// The watcher turns context cancellation into a driver stop
		// (waking sleepers); it exits with the run.
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-done:
				d.fail(opts.Ctx.Err())
			case <-finished:
			}
		}()
	}

	var wg sync.WaitGroup
	ws := make([]*wsWorker, workers)
	for i := range ws {
		ws[i] = &wsWorker{id: i, ctx: sys.NewExploreCtx(), exp: opts.newWorkerExpander(sys)}
	}
	ws[0].pushLocal(d, e0)
	for _, w := range ws {
		wg.Add(1)
		go w.run(d, &wg)
	}
	wg.Wait()
	// The watcher may not have run yet: a cancellation that fired during
	// the run still ends it cancelled. Failing through the Once also
	// orders the read of d.err below after a concurrent watcher fail.
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		d.fail(opts.Ctx.Err())
	}
	d.failOnce.Do(func() {})

	stats := Stats{
		States:      int(d.states.Load()),
		Transitions: d.transitions,
		PeakFrontier: func() int {
			if p := int(d.peak.Load()); p > 0 {
				return p
			}
			return 1
		}(),
		Truncated: d.truncated.Load(),
	}
	stats.SeenBytes, stats.ExactPromotions = seenTotals(d.shards)
	stats.PeakFrontierBytes = d.residentPeak.Load() * d.entryBytes
	if d.spill != nil {
		stats.SpilledChunks = d.spill.written()
	}
	for _, w := range ws {
		stats.AmpleStates += w.ampleStates
		stats.PrunedMoves += w.prunedMoves
		stats.ProvisoFallbacks += w.provisoFallbacks
	}
	if d.err != nil {
		return stats, stats.finish(d.err)
	}
	return stats, stats.finish(sink.Done(stats.Truncated))
}
