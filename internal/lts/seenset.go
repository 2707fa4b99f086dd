package lts

import (
	"bytes"
	"encoding/binary"
)

// This file implements the pluggable successor-dedup layer of the
// exploration loop (stream.go) — the seen-set counterpart of the
// Expander stage (expand.go). The loop routes every successor key
// through one SeenSet per lock stripe. Both SeenSets build the same
// table (seenTable) and differ only in the fixed-width record it keeps
// per visited state:
//
//   - Exact (the default) records the full binary key, so membership
//     answers are exact.
//
//   - Compact records the key's 64-bit hash instead, whatever the key
//     width — the classic hash-compaction trade (Wolper–Leroy /
//     Stern–Dill): two distinct states are merged only if their full
//     64-bit avalanche hashes collide, an event of probability
//     ≈ n²·2⁻⁶⁴ over n states (about 10⁻⁸ at a billion states).
//
// Per visited state the table costs its record, 6 bytes per slot (8 to
// 16 per state between doublings) and, under several workers, a 4-byte
// id. Measured with Stats.SeenBytes on CounterGrid(7,5) (78 125 states,
// 91-byte keys): exact 101.3 B/state at one worker and 110.0 at four,
// compact 18.5 and 30.2. A small run pays mostly the fixed cost of its
// stripes, each of which starts with a 6 KiB table and a first chunk
// of 64 entries that doubles as it fills: 16 807 states of
// CounterGrid(5,7) take 21.4 B/state compact at one worker, 33.6 at two
// (16 stripes).
//
// SeenSets is the factory the loop consumes through Options.Seen; one
// SeenSet instance is created per shard, and all calls on an instance
// happen under that shard's mutex, so implementations need no internal
// locking.

// SeenSet is one dedup stripe: a mapping from state keys to state ids.
// h must be hashKey(key); callers pass it so striping and membership
// share one hash computation. Implementations are NOT safe for
// concurrent use — the exploration loop serializes access per stripe.
type SeenSet interface {
	// Find returns the id recorded for key and whether the key is
	// present.
	Find(h uint64, key []byte) (int32, bool)
	// Add records key under id. The caller has established via Find
	// that the key is absent.
	Add(h uint64, key []byte, id int32)
	// Bytes returns the set's current memory footprint: every slot
	// table, record and id chunk at its allocated size.
	Bytes() int64
	// Promotions returns 0: no seen set verifies hash matches against
	// stored keys any more.
	//
	// Deprecated: nothing reads it; implement Find, Add and Bytes and
	// return 0.
	Promotions() int64
}

// SeenSets builds the per-stripe SeenSet instances of one exploration.
type SeenSets interface {
	// NewSeenSet returns an empty stripe for fixed-width keys of
	// keyWidth bytes.
	NewSeenSet(keyWidth int) SeenSet
}

// ExactSeen selects exact dedup (the default): full keys in chunked
// arenas, indexed by an open-addressed table of tagged slots. A visited
// state costs its key plus about 10 bytes at one worker and 19 under
// several (CounterGrid(7,5), 91-byte keys: 101.3 and
// 110.0 B/state).
type ExactSeen struct{}

// NewSeenSet implements SeenSets.
func (ExactSeen) NewSeenSet(keyWidth int) SeenSet { return newSeenTable(keyWidth, false) }

// CompactSeen selects hash-compacted dedup: an 8-byte hash record per
// visited state independent of key width, 18.5 B/state with
// the table at one worker and 30.2 under four on
// CounterGrid(7,5). Membership is exact up to 64-bit hash collisions
// (probability ≈ n²·2⁻⁶⁴ — see the file comment).
type CompactSeen struct{}

// NewSeenSet implements SeenSets.
func (CompactSeen) NewSeenSet(int) SeenSet { return newSeenTable(8, true) }

const (
	// seenChunkBytes bounds the byte size of one record chunk of
	// records no wider than it; an id chunk holds as many entries as a
	// record chunk.
	seenChunkBytes = 1 << 15
	// seenFirstEntries is the entry count a stripe's first chunk starts
	// at. It doubles up to a full chunk, so a stripe of a small run
	// holds about what it stores rather than a whole chunk.
	seenFirstEntries = 64
	// seenInitSlots is the initial open-addressed table size (power of
	// two; grown by doubling at 3/4 load).
	seenInitSlots = 1 << 10
	// seenTagShift places the slot tags at hash bits 40–55, which
	// neither a probe start (the low bits: tables stay below 2^32
	// slots) nor the stripe selector (at most the top 8 bits,
	// driver.stripe) reads. Keys that share a probe chain or a stripe
	// therefore still differ in their tags with probability 1 - 2^-16.
	seenTagShift = 40
)

// seenTable stores one fixed-width record per visited state back to
// back in chunked arenas — the key (exact) or the 8-byte hash (compact)
// — indexed by an open-addressed table that compares candidates against
// the arena in place. The probe start and a 16-bit tag beside each slot
// come from the hash, so a probe reads a record only when the tags
// agree. Per visited state it allocates nothing: only new chunks, the
// first chunk's doublings and the logarithmically many table doublings
// touch the allocator.
//
// An entry's id is its entry index for as long as every Add says so,
// which holds for the one stripe of a one-worker run (ids are admitted
// in order); the table then stores no ids at all. The first Add whose
// id differs — any stripe under several workers — makes the ids
// explicit.
type seenTable struct {
	// slots holds entry index + 1 (0 = empty), linear probing,
	// power-of-two size, grown at 3/4 load; tags[i] is the tag of the
	// entry in slots[i].
	slots []int32
	tags  []uint16
	n     int
	// hashed says the record is the hash rather than the key.
	hashed bool
	// recs chunks hold 1<<shift records of rw bytes apiece, except a
	// first chunk still below that size; ids chunks, nil while every id
	// equals its entry index, hold the recorded id of the same entry
	// index. room counts the entries the chunks have space for.
	rw    int
	shift uint
	room  int
	recs  [][]byte
	ids   [][]int32
}

// newSeenTable returns an empty table whose records are rw bytes wide:
// the key, or the hash if hashed. A system without atoms has 0-byte
// keys and so 0-byte exact records; a record wider than seenChunkBytes
// gets a chunk of its own.
func newSeenTable(rw int, hashed bool) *seenTable {
	shift := uint(0)
	for max(rw, 1)<<(shift+1) <= seenChunkBytes {
		shift++
	}
	return &seenTable{
		slots: make([]int32, seenInitSlots), tags: make([]uint16, seenInitSlots),
		hashed: hashed, rw: rw, shift: shift,
	}
}

// rec returns entry e's arena-resident record.
func (s *seenTable) rec(e int32) []byte {
	off := int(e&(1<<s.shift-1)) * s.rw
	return s.recs[e>>s.shift][off : off+s.rw]
}

// Find implements SeenSet.
func (s *seenTable) Find(h uint64, key []byte) (int32, bool) {
	tag := uint16(h >> seenTagShift)
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := s.slots[i]
		if slot == 0 {
			return 0, false
		}
		if s.tags[i] != tag {
			continue
		}
		e := slot - 1
		if r := s.rec(e); s.hashed {
			if binary.LittleEndian.Uint64(r) != h {
				continue
			}
		} else if !bytes.Equal(r, key) {
			continue
		}
		if s.ids == nil {
			return e, true
		}
		return s.ids[e>>s.shift][e&(1<<s.shift-1)], true
	}
}

// Add implements SeenSet.
func (s *seenTable) Add(h uint64, key []byte, id int32) {
	if (s.n+1)*4 >= len(s.slots)*3 {
		s.grow()
	}
	if s.n == s.room {
		s.reserve()
	}
	e := int32(s.n)
	if r := s.rec(e); s.hashed {
		binary.LittleEndian.PutUint64(r, h)
	} else {
		copy(r, key)
	}
	if s.ids == nil && id != e {
		s.explicitIDs()
	}
	if s.ids != nil {
		s.ids[e>>s.shift][e&(1<<s.shift-1)] = id
	}
	s.insert(h, e)
	s.n++
}

// reserve makes room for one more entry: it doubles a first chunk
// below full size, copying what it holds, or appends a full chunk.
func (s *seenTable) reserve() {
	full := 1 << s.shift
	if s.room >= full {
		s.recs = append(s.recs, make([]byte, s.rw*full))
		if s.ids != nil {
			s.ids = append(s.ids, make([]int32, full))
		}
		s.room += full
		return
	}
	s.room = min(max(2*s.room, seenFirstEntries), full)
	if len(s.recs) == 0 {
		s.recs = [][]byte{nil}
	}
	s.recs[0] = resized(s.recs[0], s.rw*s.room)
	if s.ids != nil {
		s.ids[0] = resized(s.ids[0], s.room)
	}
}

// resized returns a copy of c with length n, zero past len(c).
func resized[T any](c []T, n int) []T {
	r := make([]T, n)
	copy(r, c)
	return r
}

// explicitIDs gives every record chunk its id chunk, recording the ids
// the entries so far had implicitly: their indexes.
func (s *seenTable) explicitIDs() {
	s.ids = make([][]int32, len(s.recs))
	for c := range s.ids {
		s.ids[c] = make([]int32, min(s.room-c<<s.shift, 1<<s.shift))
		for i := range s.ids[c] {
			s.ids[c][i] = int32(c<<s.shift + i)
		}
	}
}

// insert probes the table for the first empty slot of entry e.
func (s *seenTable) insert(h uint64, e int32) {
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = e + 1
	s.tags[i] = uint16(h >> seenTagShift)
}

// grow doubles the table and re-inserts every entry from its stored
// hash, or by re-hashing its stored key.
func (s *seenTable) grow() {
	s.slots = make([]int32, 2*len(s.slots))
	s.tags = make([]uint16, len(s.slots))
	for e := int32(0); e < int32(s.n); e++ {
		if r := s.rec(e); s.hashed {
			s.insert(binary.LittleEndian.Uint64(r), e)
		} else {
			s.insert(hashKey(r), e)
		}
	}
}

// Bytes implements SeenSet.
func (s *seenTable) Bytes() int64 {
	b := int64(len(s.slots))*6 + int64(s.room*s.rw)
	if s.ids != nil {
		b += int64(s.room) * 4
	}
	return b
}

// Promotions implements SeenSet.
//
// Deprecated: always 0.
func (s *seenTable) Promotions() int64 { return 0 }

// hashKey is FNV-1a folded over 8-byte words (with a byte-wise tail),
// finished with a murmur3-style avalanche — deterministic across runs,
// so shard assignment (and therefore nothing observable) depends only
// on the state, and one multiply per word instead of per byte keeps it
// cheap on the wide fixed-width keys.
//
// The finalizer is load-bearing: the folding multiplications propagate
// bit differences only upward (bit i of a product depends on bits <= i
// of the operands), so two keys differing only in the HIGH bytes of a
// word — e.g. a counter value whose encoding straddles a word boundary,
// as in the deep-chain workload — would otherwise agree on every low
// bit. The seen-set tables index with the low bits, their tags take
// bits 40–55 and the stripe selector (driver.stripe) takes the top
// bits; without the avalanche the tables degenerate into a handful of
// giant probe chains (measured 40x on deep-chain E18).
func hashKey(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for len(b) >= 8 {
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		h = (h ^ w) * 1099511628211
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
