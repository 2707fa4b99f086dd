package lts

import "bytes"

// This file implements the pluggable successor-dedup layer of the
// exploration loop (stream.go) — the seen-set counterpart of the
// Expander stage (expand.go). The loop routes every successor key
// through one SeenSet per lock stripe; what the set
// STORES per visited state is the implementation's business:
//
//   - Exact (the default) keeps the full fixed-width binary key in
//     chunked arenas. Membership answers are exact, memory is
//     keyWidth + ~10 bytes per state at one worker, ~14 under several.
//
//   - Compact keeps a 64-bit hash discriminator plus the state id —
//     ~12 bytes per state regardless of key width — the classic
//     hash-compaction trade (Wolper–Leroy / Stern–Dill): two distinct
//     states are merged only if their full 64-bit avalanche hashes
//     collide, an event of probability ≈ n²·2⁻⁶⁴ over n states (about
//     10⁻⁸ at a billion states). Narrowing RemainderBits arms the
//     exact-promotion tier: full keys are retained and every
//     discriminator match is verified against them, so ambiguous
//     collisions are overruled (counted in Stats.ExactPromotions) and
//     membership stays exact even when the discriminator is made to
//     collide constantly — the collision-injection tests run the whole
//     differential suite at RemainderBits: 8 to pin exactly that.
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
	// table, hash/id record and key arena chunk at its allocated size.
	Bytes() int64
	// Promotions returns how many membership answers were resolved by
	// the exact-promotion tier overruling a colliding discriminator
	// (always 0 for Exact and for Compact at full discriminator width).
	Promotions() int64
}

// SeenSets builds the per-stripe SeenSet instances of one exploration.
type SeenSets interface {
	// NewSeenSet returns an empty stripe for fixed-width keys of
	// keyWidth bytes.
	NewSeenSet(keyWidth int) SeenSet
}

// ExactSeen selects exact dedup (the default): full keys in chunked
// arenas, indexed by an open-addressed table of tagged slots. Memory per
// visited state is the key width plus ~10 bytes of table and ids at one
// worker, ~14 under several.
type ExactSeen struct{}

// NewSeenSet implements SeenSets.
func (ExactSeen) NewSeenSet(keyWidth int) SeenSet { return newExactSeen(keyWidth) }

// CompactSeen selects hash-compacted dedup: ~12 bytes per visited state
// independent of key width. With the default full-width discriminator
// (RemainderBits 0 or >= 64) membership is exact up to 64-bit hash
// collisions (probability ≈ n²·2⁻⁶⁴ — see the file comment); any
// narrower width stores full keys too and verifies every discriminator
// match against them, keeping membership exact and counting the
// overruled collisions as promotions.
type CompactSeen struct {
	// RemainderBits is the discriminator width in bits. 0 (and anything
	// >= 64) means the full 64-bit hash with no key storage; 1..63
	// arms the verifying exact-promotion tier. Narrow widths exist for
	// collision-injection testing, not production use.
	RemainderBits int
}

// NewSeenSet implements SeenSets.
func (c CompactSeen) NewSeenSet(keyWidth int) SeenSet {
	s := &compactSeen{
		width:  keyWidth,
		dmask:  ^uint64(0),
		slots:  make([]int32, seenInitSlots),
		perEnt: seenRecChunk,
	}
	if c.RemainderBits > 0 && c.RemainderBits < 64 {
		s.verify = true
		s.dmask = (uint64(1) << c.RemainderBits) - 1
		s.perKey = arenaChunk / max(keyWidth, 1)
		if s.perKey < 1 {
			s.perKey = 1
		}
	}
	return s
}

const (
	// arenaChunk is the byte size of one key arena chunk.
	arenaChunk = 1 << 16
	// seenInitSlots is the initial open-addressed table size of both
	// implementations (power of two; grown by doubling at 3/4 load).
	seenInitSlots = 1 << 10
	// seenRecChunk is how many (hash, id) records a compact-set chunk
	// holds; chunks are never moved or copied, so growth never doubles
	// the record storage transiently.
	seenRecChunk = 1 << 12
)

// exactSeen stores full keys back to back in chunked arenas plus a
// parallel chunked id array, indexed by an open-addressed table of
// entry indexes that compares candidates against the arena in place.
// Beside each slot it keeps a 16-bit tag of the entry's hash (seenTag),
// so a probe reads the arena only when the tags agree: a slot of
// another key costs a two-byte compare, not a key compare. Per visited
// state it allocates nothing: only new chunks and the logarithmically
// many table doublings touch the allocator.
//
// An entry's id is its entry index for as long as every Add says so,
// which holds for the one stripe of a one-worker run (ids are admitted
// in order); the set then stores no ids at all. The first Add whose id
// differs — any stripe under several workers — makes the ids explicit.
type exactSeen struct {
	width int
	// slots holds entry index + 1 (0 = empty), linear probing,
	// power-of-two size, grown at 3/4 load; tags[i] is the tag of the
	// entry in slots[i].
	slots []int32
	tags  []uint16
	n     int
	// keys chunks back the key bytes, perChunk keys apiece; ids chunks,
	// nil while every id equals its entry index, hold the recorded id of
	// the same entry index.
	perChunk int
	keys     [][]byte
	ids      [][]int32
}

// seenTagShift places exactSeen's tags at hash bits 40–55, which
// neither a probe start (the low bits: tables stay below 2^32 slots)
// nor the stripe selector (at most the top 8 bits, driver.stripe)
// reads. Keys that share a probe chain or a stripe therefore still
// differ in their tags with probability 1 - 2^-16.
const seenTagShift = 40

// seenTag returns the tag exactSeen keeps for hash h.
func seenTag(h uint64) uint16 { return uint16(h >> seenTagShift) }

func newExactSeen(width int) *exactSeen {
	per := arenaChunk / max(width, 1) // a system without atoms has 0-byte keys
	if per < 1 {
		per = 1
	}
	return &exactSeen{width: width, slots: make([]int32, seenInitSlots), tags: make([]uint16, seenInitSlots), perChunk: per}
}

// keyAt returns entry e's arena-resident key.
func (s *exactSeen) keyAt(e int32) []byte {
	off := (int(e) % s.perChunk) * s.width
	return s.keys[int(e)/s.perChunk][off : off+s.width]
}

// Find implements SeenSet.
func (s *exactSeen) Find(h uint64, key []byte) (int32, bool) {
	mask := uint64(len(s.slots) - 1)
	tag := seenTag(h)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := s.slots[i]
		if slot == 0 {
			return 0, false
		}
		if s.tags[i] != tag {
			continue
		}
		if e := slot - 1; bytes.Equal(s.keyAt(e), key) {
			if s.ids == nil {
				return e, true
			}
			return s.ids[int(e)/s.perChunk][int(e)%s.perChunk], true
		}
	}
}

// Add implements SeenSet.
func (s *exactSeen) Add(h uint64, key []byte, id int32) {
	if (s.n+1)*4 >= len(s.slots)*3 {
		s.grow()
	}
	e := s.n
	if e%s.perChunk == 0 {
		s.keys = append(s.keys, make([]byte, s.perChunk*s.width))
		if s.ids != nil {
			s.ids = append(s.ids, make([]int32, s.perChunk))
		}
	}
	copy(s.keyAt(int32(e)), key)
	if s.ids == nil && id != int32(e) {
		s.explicitIDs()
	}
	if s.ids != nil {
		s.ids[e/s.perChunk][e%s.perChunk] = id
	}
	s.insert(h, int32(e))
	s.n++
}

// explicitIDs gives every key chunk its id chunk, recording the ids the
// entries so far had implicitly: their indexes.
func (s *exactSeen) explicitIDs() {
	s.ids = make([][]int32, len(s.keys))
	for c := range s.ids {
		s.ids[c] = make([]int32, s.perChunk)
		for i := range s.ids[c] {
			s.ids[c][i] = int32(c*s.perChunk + i)
		}
	}
}

// insert probes the table for the first empty slot of entry e.
func (s *exactSeen) insert(h uint64, e int32) {
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = e + 1
	s.tags[i] = seenTag(h)
}

// grow doubles the table and re-inserts every entry, re-hashing its
// arena-resident key.
func (s *exactSeen) grow() {
	s.slots = make([]int32, 2*len(s.slots))
	s.tags = make([]uint16, len(s.slots))
	for e := 0; e < s.n; e++ {
		s.insert(hashKey(s.keyAt(int32(e))), int32(e))
	}
}

// Bytes implements SeenSet.
func (s *exactSeen) Bytes() int64 {
	return int64(len(s.slots))*4 + int64(len(s.tags))*2 +
		int64(len(s.keys))*int64(s.perChunk)*int64(s.width) +
		int64(len(s.ids))*int64(s.perChunk)*4
}

// Promotions implements SeenSet.
func (s *exactSeen) Promotions() int64 { return 0 }

// compactSeen stores one (64-bit hash, id) record per visited state in
// chunked parallel arrays, indexed by an open-addressed table whose
// match test is discriminator equality: (stored hash ^ h) & dmask == 0.
// The full hash is always retained so table growth re-probes without
// keys; the keys themselves exist only in verify mode (narrow dmask),
// where every discriminator match is additionally confirmed against the
// key arena and an overruled match counts as a promotion.
type compactSeen struct {
	width  int
	dmask  uint64
	verify bool
	slots  []int32 // entry index + 1, as in exactSeen
	n      int
	perEnt int
	hs     [][]uint64
	ids    [][]int32
	// Exact-promotion tier (verify mode only).
	perKey     int
	keys       [][]byte
	promotions int64
}

func (s *compactSeen) hAt(e int32) uint64 { return s.hs[int(e)/s.perEnt][int(e)%s.perEnt] }
func (s *compactSeen) idAt(e int32) int32 { return s.ids[int(e)/s.perEnt][int(e)%s.perEnt] }
func (s *compactSeen) keyAt(e int32) []byte {
	off := (int(e) % s.perKey) * s.width
	return s.keys[int(e)/s.perKey][off : off+s.width]
}

// probeStart confines the probe sequence to the discriminator: in pure
// mode that is the full hash (the pre-extraction behaviour); in verify
// mode colliding discriminators share a chain, so the exact tier
// actually gets to overrule them.
func (s *compactSeen) probeStart(h uint64) uint64 { return h & s.dmask }

// Find implements SeenSet.
func (s *compactSeen) Find(h uint64, key []byte) (int32, bool) {
	mask := uint64(len(s.slots) - 1)
	for i := s.probeStart(h) & mask; ; i = (i + 1) & mask {
		slot := s.slots[i]
		if slot == 0 {
			return 0, false
		}
		e := slot - 1
		if (s.hAt(e)^h)&s.dmask != 0 {
			continue
		}
		if !s.verify {
			return s.idAt(e), true
		}
		if bytes.Equal(s.keyAt(e), key) {
			return s.idAt(e), true
		}
		// Discriminator collision between distinct states: the exact
		// tier overrules the match and the probe continues — the true
		// entry, if any, sits later in the chain.
		s.promotions++
	}
}

// Add implements SeenSet.
func (s *compactSeen) Add(h uint64, key []byte, id int32) {
	if (s.n+1)*4 >= len(s.slots)*3 {
		s.grow()
	}
	e := s.n
	if e%s.perEnt == 0 {
		s.hs = append(s.hs, make([]uint64, s.perEnt))
		s.ids = append(s.ids, make([]int32, s.perEnt))
	}
	s.hs[e/s.perEnt][e%s.perEnt] = h
	s.ids[e/s.perEnt][e%s.perEnt] = id
	if s.verify {
		if e%s.perKey == 0 {
			s.keys = append(s.keys, make([]byte, s.perKey*s.width))
		}
		copy(s.keyAt(int32(e)), key)
	}
	s.insert(h, int32(e))
	s.n++
}

// insert probes the table for the first empty slot of entry e.
func (s *compactSeen) insert(h uint64, e int32) {
	mask := uint64(len(s.slots) - 1)
	i := s.probeStart(h) & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = e + 1
}

// grow doubles the table and re-inserts every entry from its stored
// full hash — no key access, so pure mode never needs the keys back.
func (s *compactSeen) grow() {
	s.slots = make([]int32, 2*len(s.slots))
	for e := 0; e < s.n; e++ {
		s.insert(s.hAt(int32(e)), int32(e))
	}
}

// Bytes implements SeenSet.
func (s *compactSeen) Bytes() int64 {
	b := int64(len(s.slots))*4 +
		int64(len(s.hs))*int64(s.perEnt)*8 +
		int64(len(s.ids))*int64(s.perEnt)*4
	if s.verify {
		b += int64(len(s.keys)) * int64(s.perKey) * int64(s.width)
	}
	return b
}

// Promotions implements SeenSet.
func (s *compactSeen) Promotions() int64 { return s.promotions }

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
// bit. The open-addressed seen-set tables index with the low bits, the
// exact set's tags take bits 40–55 and the stripe selector
// (driver.stripe) takes the top bits; without the
// avalanche the tables degenerate into a handful of giant probe chains
// (measured 40x on deep-chain E18).
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
