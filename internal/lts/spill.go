package lts

import (
	"fmt"
	"sync"

	"bip/internal/core"
	"bip/internal/faultfs"
)

// This file implements the work-stealing frontier's disk spill
// (Options.MemBudget). The spill protocol leans on the groundwork of
// the earlier PRs: a pending state is fully determined by its
// fixed-width binary key (the state decodes back with
// core.System.StateFromBinaryKey and its move table recomputes with
// EnabledVector), so spilling a 32-entry deque chunk is one flat
// n×keyWidth write — no per-state encoding, no varints, no index
// structure on disk. What stays in RAM per spilled state is 12 bytes of
// record (id + path-node pointer): the BFS-tree nodes cannot be evicted
// without forfeiting counterexample paths, and they are the smallest
// part of a frontier entry by an order of magnitude.
//
// Concurrency: writes and reads go through WriteAt/ReadAt on a
// create-temp file (no shared file offset), the record list is guarded
// by one mutex, and each chunk is written once and read back once —
// take removes the record before the reader touches the file, so no
// two workers ever share a region. Records are taken newest-first: the
// tail of the file is the most recently written and the most likely
// still in the page cache.

// wsSpillRec locates one spilled chunk: its file region plus the
// RAM-resident remainder of its entries.
type wsSpillRec struct {
	off   int64
	n     int
	ids   [wsChunkCap]int32
	nodes [wsChunkCap]*pathNode
}

// wsSpill is the spill file of one exploration, created lazily on the
// first over-budget publish and removed when the run returns. All file
// operations go through the injected faultfs.FS, so tests can fail any
// CreateTemp/WriteAt/ReadAt and pin that the fault becomes the run's
// clean terminal error with the temp file still closed and removed
// (spill_fault_test.go).
type wsSpill struct {
	fs faultfs.FS

	mu      sync.Mutex
	f       faultfs.File
	off     int64
	recs    []*wsSpillRec
	nWrites int64
}

// write serializes one chunk: every entry is reduced to its binary key
// (recomputed from the state — nothing beyond the key ever reaches
// disk), id and path node, and the entries are released.
func (s *wsSpill) write(sys *core.System, c *wsChunk, w *worker) error {
	rec := &wsSpillRec{n: c.n}
	buf := w.keyBuf[:0]
	for i := 0; i < c.n; i++ {
		e := c.e[i]
		buf = sys.AppendBinaryKey(buf, e.state)
		rec.ids[i] = e.id
		rec.nodes[i] = e.node
	}
	w.keyBuf = buf

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		f, err := s.fs.CreateTemp("", "bip-spill-*")
		if err != nil {
			return fmt.Errorf("lts: frontier spill: %w", err)
		}
		s.f = f
	}
	if _, err := s.f.WriteAt(buf, s.off); err != nil {
		return fmt.Errorf("lts: frontier spill: %w", err)
	}
	rec.off = s.off
	s.off += int64(len(buf))
	s.recs = append(s.recs, rec)
	s.nWrites++
	return nil
}

// take removes and returns the newest spilled record, nil when the file
// has drained.
func (s *wsSpill) take() *wsSpillRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.recs)
	if n == 0 {
		return nil
	}
	rec := s.recs[n-1]
	s.recs[n-1] = nil
	s.recs = s.recs[:n-1]
	return rec
}

// written returns how many chunks were spilled over the run.
func (s *wsSpill) written() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nWrites
}

// close removes the spill file; undrained records (early stop, error,
// cancellation) go with it. It runs on every exit path — Stream defers
// it before the first publish can possibly spill — so the temp file
// cannot outlive the run whatever ended it.
func (s *wsSpill) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return
	}
	name := s.f.Name()
	s.f.Close()
	s.fs.Remove(name)
	s.f = nil
	s.recs = nil
}
