package core

import "bip/internal/expr"

// Slab is a chunked slab allocator for the per-state machinery of
// exploration: materialized state stores (location and variable-store
// headers, the participants' variable values), derived move tables,
// move lists and choice vectors. The drivers admit one state per
// distinct interned binary record, so the slots carved here are keyed
// one-to-one by the dedup arena's records — the slab is the value side
// of that key arena.
//
// Each typed slab hands out fixed-capacity sub-slices of large chunks;
// exhausted chunks are replaced, never grown, so previously carved
// slices stay valid forever. Carved slices have len == cap, which keeps
// an append by one holder from clobbering a neighbour's slot. This
// turns the per-state slice allocations of a successor — two
// state-store headers, a value slice per participant, a move-table
// header, a move list per recomputed interaction, a choice vector per
// move — into one allocation per slabChunk elements.
//
// Lifetime is arena-style: nothing is freed individually. Chunks die
// with the Slab (one exploration), or live on as long as a sink retains
// a state materialized into them. A Slab is not safe for concurrent
// use; the parallel drivers give each worker its own via ExploreCtx,
// mirroring the per-shard key arenas of the seen-set. Cross-worker
// reads of carved memory are safe once publication is ordered (the
// drivers publish entries under their shard or queue locks).
type Slab struct {
	locs  []string
	vars  []expr.Slots
	vals  []expr.Value
	vecs  [][]Move
	moves []Move
	ints  []int
}

// slabChunk is the element count of one chunk of each typed slab.
const slabChunk = 4096

// carve returns the next n-element slot of a typed slab, replacing the
// chunk when exhausted. The slot is full (len == cap == n).
func carve[T any](buf *[]T, n int) []T {
	if len(*buf)+n > cap(*buf) {
		size := slabChunk
		if n > size {
			size = n
		}
		*buf = make([]T, 0, size)
	}
	off := len(*buf)
	*buf = (*buf)[:off+n]
	return (*buf)[off : off+n : off+n]
}

// A nil *Slab allocates every slot from the heap instead, for the
// from-scratch callers (System.EnabledVector, a StateFromBinaryKey
// outside exploration).

// Locs carves a location-header slot (one string per atom).
func (s *Slab) Locs(n int) []string {
	if s == nil {
		return make([]string, n)
	}
	return carve(&s.locs, n)
}

// Vars carves a variable-store-header slot (one store per atom).
func (s *Slab) Vars(n int) []expr.Slots {
	if s == nil {
		return make([]expr.Slots, n)
	}
	return carve(&s.vars, n)
}

// Values carves a variable-value slot (one component's store).
func (s *Slab) Values(n int) []expr.Value {
	if s == nil {
		return make([]expr.Value, n)
	}
	return carve(&s.vals, n)
}

// Vecs carves a move-table header (one move list per interaction).
func (s *Slab) Vecs(n int) [][]Move {
	if s == nil {
		return make([][]Move, n)
	}
	return carve(&s.vecs, n)
}

// Moves carves a move-list slot.
func (s *Slab) Moves(n int) []Move {
	if s == nil {
		return make([]Move, n)
	}
	return carve(&s.moves, n)
}

// Ints carves a choice-vector slot.
func (s *Slab) Ints(n int) []int {
	if s == nil {
		return make([]int, n)
	}
	return carve(&s.ints, n)
}

// MaterializeSlab returns a retained copy of the last Step's successor,
// with its Locs and Vars headers and the participants' variable values
// carved from slab. Everything else is shared with the parent,
// matching System.Exec's copy-on-write discipline. The returned state
// is valid as long as the slab's chunks are, i.e. as long as the state
// itself is retained.
func (x *ScratchExec) MaterializeSlab(slab *Slab) State {
	out := State{
		Locs: slab.Locs(len(x.st.Locs)),
		Vars: slab.Vars(len(x.st.Vars)),
	}
	copy(out.Locs, x.st.Locs)
	copy(out.Vars, x.st.Vars)
	for _, ai := range x.stepped {
		src := x.st.Vars[ai]
		v := slab.Values(len(src.V))
		copy(v, src.V)
		out.Vars[ai] = expr.Slots{L: src.L, V: v}
	}
	return out
}

// Vector computes the complete per-interaction raw move table at st,
// carved from slab. Exploration derives a successor's table from its
// parent's with DeriveSlab instead; Vector serves the states that have
// no parent table: the initial state and a state reloaded from the
// spill file.
func (d *TableDeriver) Vector(st State, slab *Slab) ([][]Move, error) {
	vec := slab.Vecs(len(d.sys.Interactions))
	for ii := range vec {
		if err := d.recompute(vec, ii, &st, slab); err != nil {
			return nil, err
		}
	}
	return vec, nil
}

// DeriveSlab returns the move table of the state st reached by firing m
// from a state whose table is parent, recomputing only the entries
// incident to m's participants. The table header, recomputed move lists
// and their choice vectors are carved from slab; every other entry is
// shared with the parent table, so the result must be treated as
// immutable.
func (d *TableDeriver) DeriveSlab(parent [][]Move, m Move, st State, slab *Slab) ([][]Move, error) {
	sys := d.sys
	vec := slab.Vecs(len(parent))
	copy(vec, parent)
	d.dirtyList = d.dirtyList[:0]
	for _, ai := range sys.portAtoms[m.Interaction] {
		for _, ii := range sys.incident[ai] {
			if !d.dirty[ii] {
				d.dirty[ii] = true
				d.dirtyList = append(d.dirtyList, ii)
			}
		}
	}
	// The flags only deduplicate the list above; clear them before the
	// recompute loop so an error cannot leave entries marked dirty (a
	// stale flag would make later calls skip recomputation).
	for _, ii := range d.dirtyList {
		d.dirty[ii] = false
	}
	for _, ii := range d.dirtyList {
		if err := d.recompute(vec, ii, &st, slab); err != nil {
			return nil, err
		}
	}
	return vec, nil
}

// recompute sets vec[ii] to interaction ii's moves at st, carved from
// slab. The moves are collected in the reusable scratch first:
// movesOfInteraction appends incrementally, and a slab slot must be
// carved at its final size.
func (d *TableDeriver) recompute(vec [][]Move, ii int, st *State, slab *Slab) error {
	var err error
	d.scratch, err = d.sys.movesOfInteraction(st, ii, d.scratch[:0], d.frame, slab)
	if err != nil {
		return err
	}
	if len(d.scratch) == 0 {
		vec[ii] = nil
		return nil
	}
	ms := slab.Moves(len(d.scratch))
	copy(ms, d.scratch)
	vec[ii] = ms
	return nil
}
