package lts

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the work-stealing frontier behind Stream when
// Options.Order == Unordered with Options.Workers > 1 or a MemBudget
// (it is the only frontier that spills); the worker loop that drains it
// is the shared one in stream.go. There is no barrier anywhere on the
// hot path:
//
//   - Pending entries live in per-worker deques of fixed-size chunks. A
//     worker pushes and pops its newest chunk privately (no lock, good
//     locality); full chunks are published to the worker's deque under
//     a per-deque mutex, and a worker that runs dry steals the OLDEST
//     half of a victim's published chunks (steal-half balancing: one
//     steal rebalances log-many imbalances, and taking the old end
//     keeps thieves off the owner's working set). A worker whose deque
//     is empty publishes its private chunk early, so work never hides
//     in a private buffer while peers starve.
//
//   - Ids are reserved by a CAS on the admitted-state counter. Idle
//     workers sleep on the driver's condition variable, whose
//     generation is bumped by every publish, by the final in-flight
//     decrement and by stop/error; a worker records the generation
//     before its last scan, so a publish in between is never lost. The
//     in-flight counter reaching zero means no state is pending
//     anywhere: children are counted before they are published, and
//     their parent stops counting only after (push).
//
//   - With Options.MemBudget set, the frontier spills: whenever the
//     resident pending states exceed the budget (priced by
//     frontierEntryBytes), whole published chunks are serialized to a
//     temporary file — each pending state is reduced to its
//     fixed-width binary key (recomputed from the state, so nothing
//     extra is stored) plus its RAM-resident id — and workers that run
//     out of resident work stream chunks back in, rebuilding state and
//     move table from the key into their slab (spill.go). Spilled
//     states stay admitted-but-unflushed, so the in-flight counter
//     reaches zero only when the spill file has drained too.
//
// What is preserved versus the deterministic stream: the reachable
// state set, the edge set, the truncation flag, the admitted state
// count, and therefore every checker verdict that does not depend on
// exploration order (deadlock-freedom, invariant validity,
// reachability, observer-automaton verdicts — all of them fixpoints of
// the explored graph). What varies with schedule: state numbering,
// event order, PeakFrontier, and which particular violation/witness is
// reported first. The relaxed Sink contract comes from the shared
// flush: an edge whose target another worker admitted but has not yet
// announced is parked and emitted right after the target's OnState.
// The differential tests compare canonically-sorted LTSs and every
// verdict at several worker counts to pin exactly this contract.
//
// One amendment under a reducing Expander (expand.go): the cycle
// proviso here escalates on ANY already-admitted successor — without
// levels there is no finer admitted-earlier test — so which states get
// fully expanded, and therefore the reduced state SET itself, depends
// on the schedule. The reduction is sound for every schedule (the
// escalation rule is strictly more eager than the FIFO's), so verdicts
// are still preserved; only the reduced graph's shape varies.

// wsChunkCap is the deque chunk size: the steal granularity and the
// batch in which work is published.
const wsChunkCap = 32

// wsChunk is one chunk of pending entries, treated as a stack.
type wsChunk struct {
	e [wsChunkCap]pentry
	n int
}

// wsDeque is one worker's published work: a stack of chunks. The owner
// pushes/pops at the top; thieves steal from the bottom (oldest).
type wsDeque struct {
	mu        sync.Mutex
	chunks    []*wsChunk
	published atomic.Int32 // len(chunks), readable without the lock
}

// deques is the work-stealing frontier: one wsDeque per worker.
type deques struct {
	d      *driver
	qs     []wsDeque
	states atomic.Int64 // admitted states (ids are 0..states-1)
	// inflight counts admitted states not yet expanded and pushed; it
	// reaches zero only when nothing is pending anywhere.
	inflight atomic.Int64
}

// newDeques builds the frontier for workers workers with the initial
// entry published on worker 0's deque, arming the spill layer when opts
// sets a memory budget.
func newDeques(d *driver, workers int, opts *Options, root pentry) *deques {
	if opts.MemBudget > 0 {
		d.memBudget = opts.MemBudget
		d.spill = &wsSpill{fs: opts.fs()}
	}
	f := &deques{d: d, qs: make([]wsDeque, workers)}
	c := new(wsChunk)
	c.e[0], c.n = root, 1
	f.qs[0].push(c)
	f.states.Store(1)
	f.inflight.Store(1)
	return f
}

func (f *deques) admit() (int32, bool) {
	for {
		n := f.states.Load()
		if int(n) >= f.d.maxStates {
			return rejectedID, false
		}
		if f.states.CompareAndSwap(n, n+1) {
			return int32(n), true
		}
	}
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

// takeOldest appends the oldest published chunks to buf: half of them
// for a thief, one for the spill — the states least likely to be wanted
// soon, mirroring where thieves steal. Only one deque lock is ever held
// at a time, so cross-steals cannot deadlock.
func (q *wsDeque) takeOldest(buf []*wsChunk, half bool) []*wsChunk {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.chunks)
	take := min(n, 1)
	if half {
		take = (n + 1) / 2
	}
	buf = append(buf, q.chunks[:take]...)
	rest := copy(q.chunks, q.chunks[take:])
	clear(q.chunks[rest:])
	q.chunks = q.chunks[:rest]
	q.published.Store(int32(rest))
	return buf
}

func (w *worker) newChunk() *wsChunk {
	if c := w.spare; c != nil {
		w.spare = nil
		return c
	}
	return new(wsChunk)
}

// stage hands out w's born buffer: successors wait there, invisible to
// thieves, until push moves them into the chunks.
func (f *deques) stage(w *worker) *[]pentry { return &w.born }

// push moves the staged successors into w's private chunk and empties
// the buffer. Clearing it matters: a stale copy there would pin its
// state's whole slab chunk after the frontier has let go of the state.
// Full private chunks are published; so is a multi-entry private chunk
// while the worker's deque is empty, to keep work stealable during
// narrow phases. Publishing is also the spill point (maybeSpill). The
// successors count as in flight before any of them is published, and
// the expanded entry stops counting only after, so the counter cannot
// reach zero while any of them is pending.
func (f *deques) push(w *worker) {
	d := f.d
	in := f.inflight.Add(int64(len(w.born)))
	d.raisePeaks(in, in-d.spilled.Load())
	for _, e := range w.born {
		if w.cur == nil {
			w.cur = w.newChunk()
		}
		c := w.cur
		c.e[c.n] = e
		c.n++
		if c.n == wsChunkCap || (c.n > 1 && f.qs[w.id].published.Load() == 0) {
			f.qs[w.id].push(c)
			w.cur = nil
			d.notify()
			f.maybeSpill(w)
		}
	}
	clear(w.born)
	w.born = w.born[:0]
	if f.inflight.Add(-1) == 0 {
		d.notify()
	}
}

// maybeSpill sheds the worker's oldest published chunks to the spill
// file while the resident frontier is over budget. Only the worker's
// own deque is tapped — peers over budget shed on their own next
// publish — and the loop stops as soon as there is nothing published
// left to shed (the private chunk and in-expansion states stay
// resident).
func (f *deques) maybeSpill(w *worker) {
	d := f.d
	if d.spill == nil {
		return
	}
	for (f.inflight.Load()-d.spilled.Load())*d.entryBytes > d.memBudget {
		w.steal = f.qs[w.id].takeOldest(w.steal[:0], false)
		if len(w.steal) == 0 {
			return
		}
		c := w.steal[0]
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
		d.spilled.Add(int64(n))
		// Wake sleepers: the chunk left the deques between their scan
		// and their wait, and only the spill file knows about it now.
		d.notify()
	}
}

// next returns the next entry to expand, stealing and sleeping as
// needed; false means the exploration terminated (or stopped).
func (f *deques) next(w *worker) (pentry, bool) {
	d := f.d
	for {
		if d.stopped.Load() {
			return pentry{}, false
		}
		if c := w.cur; c != nil && c.n > 0 {
			c.n--
			e := c.e[c.n]
			c.e[c.n] = pentry{}
			return e, true
		}
		if f.takeWork(w) {
			continue
		}
		// Record the wake generation, then scan once more: a publish
		// between the failed scan and the wait would otherwise be lost.
		d.idleMu.Lock()
		g := d.gen
		d.idleMu.Unlock()
		if f.takeWork(w) {
			continue
		}
		if f.inflight.Load() == 0 {
			d.notify() // release the other sleepers
			return pentry{}, false
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
func (f *deques) takeWork(w *worker) bool {
	d := f.d
	if w.cur != nil && w.cur.n == 0 && w.spare == nil {
		w.spare, w.cur = w.cur, nil
	}
	if c := f.qs[w.id].pop(); c != nil {
		w.cur = c
		return true
	}
	n := len(f.qs)
	for i := 1; i < n; i++ {
		v := (w.id + i) % n
		if f.qs[v].published.Load() == 0 {
			continue
		}
		w.steal = f.qs[v].takeOldest(w.steal[:0], true)
		if len(w.steal) == 0 {
			continue
		}
		w.cur = w.steal[0]
		for _, c := range w.steal[1:] {
			f.qs[w.id].push(c)
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
		if rec, ok := d.spill.take(); ok {
			c, err := w.reload(&rec)
			if err != nil {
				d.fail(err)
				return false
			}
			w.cur = c
			d.spilled.Add(int64(-c.n))
			return true
		}
	}
	return false
}

// reload rebuilds one taken spill record: its key block is read back
// (the caller owns the record exclusively, so the file region needs no
// lock, and ReadAt carries no shared offset), each state is decoded
// from its fixed-width binary key and its move table computed from
// scratch, both into the worker's slab — the price of eviction is one
// full move table per reloaded state.
func (w *worker) reload(rec *wsSpillRec) (*wsChunk, error) {
	d, ctx := w.d, w.ctx
	width := d.sys.BinaryKeyWidth()
	w.keyBuf = slices.Grow(w.keyBuf[:0], rec.n*width)[:rec.n*width]
	if _, err := d.spill.f.ReadAt(w.keyBuf, rec.off); err != nil {
		return nil, fmt.Errorf("lts: frontier spill read: %w", err)
	}
	c := w.newChunk()
	for i := 0; i < rec.n; i++ {
		st, err := d.sys.StateFromBinaryKey(w.keyBuf[i*width:(i+1)*width], ctx.Slab)
		if err != nil {
			return nil, fmt.Errorf("spill reload state %d: %w", rec.ids[i], err)
		}
		vec, err := ctx.Deriver.Vector(st, ctx.Slab)
		if err != nil {
			return nil, fmt.Errorf("spill reload state %d: %w", rec.ids[i], err)
		}
		c.e[i] = pentry{id: rec.ids[i], state: st, vec: vec}
	}
	c.n = rec.n
	return c, nil
}
