package core

// ExploreCtx bundles the per-worker mutable machinery of state-space
// exploration: a table deriver, a scratch executor (which also patches
// successor keys), a slab and a reusable move buffer. A single ExploreCtx is not safe for concurrent use,
// but distinct instances over the same System are: a validated System is
// read-only (Validate precomputes every index, scope, compiled closure
// and scratch-sizing, and nothing in the semantics writes to it
// afterwards), so the parallel explorer hands each worker its own
// ExploreCtx and shares the System itself.
type ExploreCtx struct {
	Deriver *TableDeriver
	Scratch *ScratchExec
	// Slab is the worker's arena for per-state machinery: materialized
	// state-store headers and participants' variable values, derived
	// move tables, move lists and choice vectors (MaterializeSlab,
	// DeriveSlab). It is the value-slot side of the seen-set's
	// interned-key arenas.
	Slab *Slab
	// Moves is the reusable buffer for per-state enabled-move lists.
	Moves []Move
}

// NewExploreCtx returns a fresh exploration context for s. The system
// must have been validated.
func (s *System) NewExploreCtx() *ExploreCtx {
	return &ExploreCtx{
		Deriver: s.NewTableDeriver(),
		Scratch: s.NewScratchExec(),
		Slab:    &Slab{},
	}
}
