package lts

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"bip/internal/core"
	"bip/models"
)

// These tests pin the pluggable seen-set layer's contract: swapping
// Options.Seen must never change what an exploration computes — state
// set, edge multiset, deadlock set, truncation flag, checker verdicts
// and the validity of every reported counterexample — only how much
// memory the visited-state record costs. The same differential runs
// two ways: with the compact set, and on the spilled frontier under a
// starved MemBudget.

// exploreStats materializes the LTS like explore but also returns the
// run's Stats, which carry the seen-set and spill accounting.
func exploreStats(t *testing.T, sys *core.System, opts Options) (*LTS, Stats) {
	t.Helper()
	l := &LTS{sys: sys}
	stats, err := Stream(sys, opts, l)
	if err != nil {
		t.Fatalf("Stream(%s): %v", sys.Name, err)
	}
	return l, stats
}

// seenWorkerCounts are the acceptance grid of the memory PR: sequential
// plus the parallel drivers at moderate and high contention.
func seenWorkerCounts() []int { return []int{1, 4, 8} }

func TestCompactSeenCanonicalDifferential(t *testing.T) {
	for _, c := range zooCases(t) {
		ref := explore(t, c.sys, c.opts)
		for _, w := range seenWorkerCounts() {
			for _, ord := range []Order{Deterministic, Unordered} {
				name := fmt.Sprintf("%s/workers=%d/order=%v", c.name, w, ord)
				opts := c.opts
				opts.Workers = w
				opts.Order = ord
				opts.Seen = CompactSeen{}
				got, stats := exploreStats(t, c.sys, opts)
				if stats.SeenBytes <= 0 {
					t.Fatalf("%s: SeenBytes = %d, accounting is dead", name, stats.SeenBytes)
				}
				if ref.Truncated() && ord == Unordered && w > 1 {
					// The admitted SET of a truncated unordered run is
					// schedule-dependent by contract; count and flag are not.
					if got.NumStates() != ref.NumStates() || !got.Truncated() {
						t.Fatalf("%s: truncated run admitted %d states (truncated=%v), want %d",
							name, got.NumStates(), got.Truncated(), ref.NumStates())
					}
					continue
				}
				requireSameCanonical(t, name, ref, got)
			}
		}
	}
}

// TestSeenTableDifferential runs both record layouts of the seen-set
// table, exact and compact, against a Go map. With real hashes it
// covers key widths 0, 5 and 13 across several table growths, the
// first chunk's doublings, a record-chunk boundary and the switch from
// implicit to explicit ids past it, after which ids equal to their
// entry index alternate with ids that are not. With injected hashes —
// one hash for every key, hashes that differ only in the tag bits
// 40–55, hashes that differ only in bits 16–24, which share a probe
// start and a tag, so the record alone tells them apart — it stays
// below the first growth, which re-hashes an exact table's
// keys and would discard the injection, and switches to explicit ids
// inside the first chunk, whose later doublings must carry them. The
// reference keys a compact table by hash (distinct keys under one hash
// merge: the hash-compaction trade) and an exact one by key. Every
// slot's tag must be bits 40–55 of its entry's hash and a compact
// record the hash itself; Bytes must count 6 bytes per slot and every
// record and id chunk, and the chunks must follow the chunk rule
// (seenChunks).
func TestSeenTableDifferential(t *testing.T) {
	const base = uint64(0x5a5a_0000_0000_1234)
	layouts := []struct {
		name string
		seen SeenSets
	}{
		{"exact", ExactSeen{}},
		{"compact", CompactSeen{}},
	}
	hashes := []struct {
		name     string
		hash     func(key []byte, i int) uint64
		injected bool
	}{
		{"hashKey", func(key []byte, _ int) uint64 { return hashKey(key) }, false},
		{"same-hash", func([]byte, int) uint64 { return base }, true},
		{"tag-bits-only", func(_ []byte, i int) uint64 { return base ^ uint64(i+1)<<seenTagShift }, true},
		{"untagged-middle-bits", func(_ []byte, i int) uint64 { return base ^ uint64(i+1)<<16 }, true},
	}
	for _, l := range layouts {
		for _, hc := range hashes {
			widths, ops := []int{0, 5, 13}, 9000
			if hc.injected {
				widths, ops = []int{8}, 500
			}
			for _, w := range widths {
				name := fmt.Sprintf("%s/%s/width=%d", l.name, hc.name, w)
				s := l.seen.NewSeenSet(w).(*seenTable)
				switchAt := 1<<s.shift + 10 // past the first record chunk
				if hc.injected {
					switchAt = 100 // inside the first chunk, before its last doublings
				}
				refKey := func(h uint64, key []byte) string {
					if s.hashed {
						return string(binary.LittleEndian.AppendUint64(nil, h))
					}
					return string(key)
				}
				ref := make(map[string]int32)
				var added [][]byte
				var addedH []uint64
				find := func(h uint64, key []byte) bool {
					id, ok := s.Find(h, key)
					want, present := ref[refKey(h, key)]
					if ok != present || ok && id != want {
						t.Fatalf("%s: Find = %d, %v, want %d, %v", name, id, ok, want, present)
					}
					return ok
				}
				rng := rand.New(rand.NewSource(int64(w) + 1))
				for i := 0; i < ops; i++ {
					var key []byte
					switch {
					case hc.injected:
						key = binary.LittleEndian.AppendUint64(nil, uint64(i))
					case len(added) > 0 && rng.Intn(3) == 0:
						key = added[rng.Intn(len(added))]
					default:
						key = make([]byte, w)
						rng.Read(key)
					}
					h := hc.hash(key, i)
					if find(h, key) {
						continue
					}
					n := len(added)
					id := int32(n)
					if n >= switchAt && n%2 == 0 {
						id = 1<<20 + int32(n)
					}
					before := s.Bytes()
					s.Add(h, key, id)
					if (s.ids != nil) != (n >= switchAt) {
						t.Fatalf("%s: explicit ids = %v after add %d", name, s.ids != nil, n)
					}
					if n == switchAt && s.Bytes() <= before {
						t.Fatalf("%s: Bytes = %d after the ids became explicit, %d before", name, s.Bytes(), before)
					}
					seenChunks(t, name, s)
					ref[refKey(h, key)] = id
					added, addedH = append(added, key), append(addedH, h)
				}
				for i, key := range added {
					find(addedH[i], key)
				}
				for i, slot := range s.slots {
					if slot == 0 {
						continue
					}
					h := addedH[slot-1]
					if s.tags[i] != uint16(h>>seenTagShift) || s.hashed && binary.LittleEndian.Uint64(s.rec(slot-1)) != h {
						t.Fatalf("%s: slot %d: tag %#x, record %x for hash %#x", name, i, s.tags[i], s.rec(slot-1), h)
					}
				}
				absent := binary.LittleEndian.AppendUint64(make([]byte, max(w-8, 0)), ^uint64(0))[:w]
				for _, i := range []int{0, ops - 1} {
					find(hc.hash(absent, i), absent)
				}
				switch {
				case hc.injected && len(s.slots) != seenInitSlots:
					t.Fatalf("%s: the table grew, so the injected hashes were replaced", name)
				case !hc.injected && w > 0 && (len(s.slots) < 8*seenInitSlots || len(s.recs) < 2 || s.ids == nil):
					t.Fatalf("%s: %d slots, %d record chunks, explicit ids %v: the run missed the growths, the chunk boundary or the id switch",
						name, len(s.slots), len(s.recs), s.ids != nil)
				}
			}
		}
	}
}

// seenChunks checks a table's chunks against the chunk rule and its
// Bytes against what it allocated. A record chunk holds at most
// seenChunkBytes, or one record wider than that; every chunk but the first is full (1<<shift entries)
// and the first is full once a second exists, while a lone first chunk
// has room for at most twice the entries stored (or seenFirstEntries);
// an id chunk holds as many entries as its record chunk. Bytes is 6 per
// slot plus every chunk's size.
func seenChunks(t *testing.T, name string, s *seenTable) {
	t.Helper()
	full := 1 << s.shift
	bytes := int64(len(s.slots))*4 + int64(len(s.tags))*2
	room := 0
	for c, r := range s.recs {
		entries := full
		if c == 0 && len(s.recs) == 1 {
			entries = s.room
		}
		if len(r) != entries*s.rw || len(r) > max(seenChunkBytes, s.rw) || 2*full*max(s.rw, 1) <= seenChunkBytes {
			t.Fatalf("%s: record chunk %d of %d holds %d bytes, want %d entries of %d within %d (first chunk %d entries)",
				name, c, len(s.recs), len(r), entries, s.rw, seenChunkBytes, full)
		}
		if s.ids != nil && len(s.ids[c]) != entries {
			t.Fatalf("%s: id chunk %d holds %d ids, want %d", name, c, len(s.ids[c]), entries)
		}
		room += entries
		bytes += int64(len(r))
	}
	if room != s.room || s.n > room || len(s.recs) == 1 && room > max(2*s.n, seenFirstEntries) {
		t.Fatalf("%s: %d entries in chunks with room for %d (recorded %d)", name, s.n, room, s.room)
	}
	if s.ids != nil && len(s.ids) != len(s.recs) {
		t.Fatalf("%s: %d id chunks for %d record chunks", name, len(s.ids), len(s.recs))
	}
	for _, ids := range s.ids {
		bytes += int64(len(ids)) * 4
	}
	if len(s.tags) != len(s.slots) || s.Bytes() != bytes {
		t.Fatalf("%s: %d tags for %d slots, Bytes = %d, want %d", name, len(s.tags), len(s.slots), s.Bytes(), bytes)
	}
}

// TestSmallSeenSetBytes pins the footprint of a stripe that holds a few
// dozen states, as each of a small parallel run's stripes does: the
// compact set must cost no more than the exact one, and neither may
// allocate a whole record chunk for them.
func TestSmallSeenSetBytes(t *testing.T) {
	const width, n = 65, 40
	var got [2]int64
	for i, seen := range []SeenSets{ExactSeen{}, CompactSeen{}} {
		s := seen.NewSeenSet(width).(*seenTable)
		for k := 0; k < n; k++ {
			key := binary.LittleEndian.AppendUint64(make([]byte, width-8), uint64(k))
			s.Add(hashKey(key), key, int32(3*k)) // explicit ids, as a stripe of a parallel run
		}
		seenChunks(t, fmt.Sprintf("%T", seen), s)
		got[i] = s.Bytes()
		if limit := int64(seenInitSlots*6 + 2*n*(s.rw+4)); got[i] > limit {
			t.Fatalf("%T: %d states cost %d bytes, more than %d", seen, n, got[i], limit)
		}
	}
	if got[1] > got[0] {
		t.Fatalf("%d states: compact %d bytes, exact %d", n, got[1], got[0])
	}
}

// TestSeenTableWideKeys stores keys wider than a whole record chunk,
// as a system of a few thousand atoms has: each gets a chunk of its
// own, and every one is found under its id.
func TestSeenTableWideKeys(t *testing.T) {
	const width, n = seenChunkBytes + 3, 5
	s := ExactSeen{}.NewSeenSet(width).(*seenTable)
	key := func(i int) []byte { return binary.LittleEndian.AppendUint64(make([]byte, width-8), uint64(i)) }
	for i := 0; i < n; i++ {
		s.Add(hashKey(key(i)), key(i), int32(2*i))
		seenChunks(t, "wide", s)
	}
	for i := 0; i < n; i++ {
		if id, ok := s.Find(hashKey(key(i)), key(i)); !ok || id != int32(2*i) {
			t.Fatalf("key %d: Find = %d, %v, want %d, true", i, id, ok, 2*i)
		}
	}
	if len(s.recs) != n {
		t.Fatalf("%d keys of %d bytes in %d record chunks, want one each", n, width, len(s.recs))
	}
}

// TestExactSeenTags pins the tagged slots of the exact layout: keys
// under one identical hash (equal tags and probe starts, so the key
// bytes alone tell them apart) must each be found under its own id, and
// so must keys whose hashes differ only in the tag bits (one probe
// chain, distinct tags); a key never added is absent. Bytes must count
// the tags, two bytes per slot. The keys stay below the first growth,
// which re-hashes the stored keys and would discard the injected hashes.
func TestExactSeenTags(t *testing.T) {
	const width, n = 8, 500
	key := func(i int) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(i)) }
	const base = uint64(0x5a5a_0000_0000_1234)
	for _, c := range []struct {
		name string
		hash func(i int) uint64
	}{
		{"same-hash", func(int) uint64 { return base }},
		{"tag-bits-only", func(i int) uint64 { return base ^ uint64(i+1)<<seenTagShift }},
	} {
		s := ExactSeen{}.NewSeenSet(width).(*seenTable)
		for i := 0; i < n; i++ {
			if _, ok := s.Find(c.hash(i), key(i)); ok {
				t.Fatalf("%s: key %d found before it was added", c.name, i)
			}
			s.Add(c.hash(i), key(i), int32(1000+i))
		}
		if len(s.slots) != seenInitSlots {
			t.Fatalf("%s: the table grew, so the injected hashes were replaced", c.name)
		}
		for i := 0; i < n; i++ {
			if id, ok := s.Find(c.hash(i), key(i)); !ok || id != int32(1000+i) {
				t.Fatalf("%s: key %d: Find = %d, %v, want %d, true", c.name, i, id, ok, 1000+i)
			}
		}
		for _, h := range []uint64{c.hash(0), c.hash(n - 1)} {
			if id, ok := s.Find(h, key(n+7)); ok {
				t.Fatalf("%s: an absent key was found as id %d", c.name, id)
			}
		}
		seenChunks(t, c.name, s)
	}
}

// TestExactSeenImplicitIDs pins the exact layout's implicit ids: while
// every id equals its entry index (a one-worker run) no id is stored,
// and the first id that differs makes them explicit without losing the
// implicit ones — across a record-chunk boundary and table growths.
func TestExactSeenImplicitIDs(t *testing.T) {
	const width = 8
	key := func(i int) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(i)) }
	s := ExactSeen{}.NewSeenSet(width).(*seenTable)
	n := 1<<s.shift + 10
	for i := 0; i < n; i++ {
		s.Add(hashKey(key(i)), key(i), int32(i))
	}
	if s.ids != nil {
		t.Fatalf("%d ids stored for in-order admissions", len(s.ids))
	}
	if len(s.recs) < 2 || len(s.slots) <= seenInitSlots {
		t.Fatalf("%d record chunks, %d slots: the run missed the chunk boundary or the growths", len(s.recs), len(s.slots))
	}
	implicit := s.Bytes()
	s.Add(hashKey(key(n)), key(n), 1<<20)
	s.Add(hashKey(key(n+1)), key(n+1), int32(n+1))
	if s.Bytes() <= implicit {
		t.Fatalf("Bytes = %d after the ids became explicit, %d before", s.Bytes(), implicit)
	}
	for i := 0; i <= n+1; i++ {
		want := int32(i)
		if i == n {
			want = 1 << 20
		}
		if id, ok := s.Find(hashKey(key(i)), key(i)); !ok || id != want {
			t.Fatalf("key %d: Find = %d, %v, want %d, true", i, id, ok, want)
		}
	}
}

// TestCompactSeenVerdictsAndPaths runs the on-the-fly checkers with the
// compact seen set across the zoo, workers and both orders: verdicts
// must match the exact sequential reference and every reported
// counterexample path must replay as a real run of the semantics.
func TestCompactSeenVerdictsAndPaths(t *testing.T) {
	for _, c := range zooCases(t) {
		ref := explore(t, c.sys, c.opts)
		if ref.Truncated() {
			continue
		}
		wantDL := len(ref.Deadlocks()) > 0
		for _, w := range seenWorkerCounts() {
			for _, ord := range []Order{Deterministic, Unordered} {
				name := fmt.Sprintf("%s/workers=%d/order=%v", c.name, w, ord)
				opts := c.opts
				opts.Workers = w
				opts.Order = ord
				opts.Seen = CompactSeen{}
				dl := &DeadlockCheck{}
				if _, err := Stream(c.sys, opts, dl); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if dl.Found != wantDL {
					t.Fatalf("%s: deadlock found=%v, exact sequential says %v", name, dl.Found, wantDL)
				}
				if dl.Found {
					validateRun(t, name, c.sys, c.opts.Raw, dl.Path, func(st core.State) bool {
						ms, err := enabledOf(c.sys, st, c.opts.Raw)
						return err == nil && len(ms) == 0
					})
				} else if !dl.Exhaustive {
					t.Fatalf("%s: full exploration must be conclusive", name)
				}
			}
		}
	}
}

// TestSeenSetsZeroWidthKeys: a system without atoms is valid and has
// one state, whose binary key is 0 bytes wide. Every seen-set
// implementation must store it (sizing key arenas by that width used to
// divide by zero).
func TestSeenSetsZeroWidthKeys(t *testing.T) {
	sys := &core.System{Name: "empty"}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, seen := range []SeenSets{ExactSeen{}, CompactSeen{}} {
		for _, ord := range []Order{Deterministic, Unordered} {
			l := explore(t, sys, Options{Seen: seen, Order: ord, Workers: 2})
			if l.NumStates() != 1 {
				t.Fatalf("%T/%v: %d states, want 1", seen, ord, l.NumStates())
			}
		}
	}
}

// TestStripeProbeStartsIndependent pins the stripe selector against
// the seen sets' probe start. Each stripe's table starts probing at
// the low bits of the hash, so the stripe must not be chosen from them:
// the keys routed to one stripe must start their probes at every
// residue of h mod nShards, not at one.
func TestStripeProbeStartsIndependent(t *testing.T) {
	shards, shift := newShards(2, ExactSeen{}, 8)
	n := len(shards)
	if n < 2 {
		t.Fatalf("two workers got %d stripes, want several", n)
	}
	d := &driver{shards: shards, shift: shift}
	residues := make([]map[uint64]bool, n)
	for i := range residues {
		residues[i] = make(map[uint64]bool)
	}
	key := make([]byte, 8)
	for k := uint64(0); k < 1<<14; k++ {
		for b := range key {
			key[b] = byte(k >> (8 * b))
		}
		h := hashKey(key)
		for si := range shards {
			if d.stripe(h) == &shards[si] {
				residues[si][h&uint64(n-1)] = true
			}
		}
	}
	for si, r := range residues {
		if len(r) != n {
			t.Fatalf("stripe %d of %d: its keys start probing at %d of %d residues", si, n, len(r), n)
		}
	}
}

// TestSpillRoundTrip starves the work-stealing frontier: a budget of a
// handful of entries forces nearly every published chunk through the
// spill file and back, so the run only completes if spilled states
// decode to exactly what was evicted. The canonical differential then
// proves the reloaded frontier produced the same exploration.
func TestSpillRoundTrip(t *testing.T) {
	grid, err := models.CounterGrid(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	twoPhase, err := models.PhilosophersDeadlocking(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*core.System{grid, twoPhase} {
		ref := explore(t, sys, Options{})
		for _, w := range []int{2, 4, 8} {
			for _, seen := range []SeenSets{nil, CompactSeen{}} {
				name := fmt.Sprintf("%s/workers=%d/compact=%v", sys.Name, w, seen != nil)
				opts := Options{
					Workers: w,
					Order:   Unordered,
					Seen:    seen,
					// ~4 frontier entries: every full chunk publish is over
					// budget, so chunks spill and reload continuously.
					MemBudget: 4 * frontierEntryBytes(sys),
				}
				got, stats := exploreStats(t, sys, opts)
				if stats.SpilledChunks < 2 {
					t.Fatalf("%s: only %d chunks spilled under a 4-entry budget", name, stats.SpilledChunks)
				}
				if stats.PeakFrontierBytes <= 0 {
					t.Fatalf("%s: PeakFrontierBytes = %d", name, stats.PeakFrontierBytes)
				}
				requireSameCanonical(t, name, ref, got)
			}
		}
	}
}

// TestDeadlockPathUnderSpill finds a reachable deadlock on the deques
// with a frontier budget of one entry, so states reach the checker
// after a trip through the spill file: their paths come from the BFS
// tree that every worker writes, never from anything the spill carried.
// The reported path must replay with System.Exec to a state with no
// enabled move.
func TestDeadlockPathUnderSpill(t *testing.T) {
	sys, err := models.PhilosophersDeadlocking(6)
	if err != nil {
		t.Fatal(err)
	}
	var spilled int64
	for run := 0; run < 8; run++ {
		name := fmt.Sprintf("run %d", run)
		dl := &DeadlockCheck{}
		stats, err := Stream(sys, Options{Workers: 2, Order: Unordered, MemBudget: frontierEntryBytes(sys)}, dl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !dl.Found {
			t.Fatalf("%s: the two-phase philosophers' deadlock was not found", name)
		}
		validateRun(t, name, sys, false, dl.Path, func(st core.State) bool {
			ms, err := sys.Enabled(st)
			return err == nil && len(ms) == 0
		})
		spilled += stats.SpilledChunks
	}
	if spilled == 0 {
		t.Fatal("no chunk was spilled: the budget did not bite")
	}
}

// TestMemBudgetBoundsPeak checks the accounting side of the budget: the
// unbudgeted work-stealing run's frontier peak must shrink by an order
// of magnitude when a tight budget is imposed (exact equality is not
// promised — each worker's unpublished tail chunk and in-flight entries
// cannot be evicted). A one-worker unordered run with a budget must
// spill too, not stay on the resident FIFO, and still explore the
// FIFO's states, edges and deadlocks.
func TestMemBudgetBoundsPeak(t *testing.T) {
	grid, err := models.CounterGrid(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	free := Options{Workers: 4, Order: Unordered}
	_, unbounded := exploreStats(t, grid, free)
	budget := unbounded.PeakFrontierBytes / 16
	bounded := free
	bounded.MemBudget = budget
	l, stats := exploreStats(t, grid, bounded)
	if want := 4 * 4 * 4 * 4 * 4 * 4; l.NumStates() != want {
		t.Fatalf("budgeted run visited %d states, want %d", l.NumStates(), want)
	}
	if stats.SpilledChunks == 0 {
		t.Fatal("budget of peak/16 spilled nothing")
	}
	if stats.PeakFrontierBytes >= unbounded.PeakFrontierBytes/2 {
		t.Fatalf("budgeted peak %d is not meaningfully below the unbudgeted %d",
			stats.PeakFrontierBytes, unbounded.PeakFrontierBytes)
	}

	fifo := explore(t, grid, Options{})
	one, oneStats := exploreStats(t, grid, Options{Workers: 1, Order: Unordered, MemBudget: 4 * frontierEntryBytes(grid)})
	if oneStats.SpilledChunks == 0 {
		t.Fatal("one-worker unordered run under a 4-entry budget spilled nothing")
	}
	requireSameCanonical(t, "workers=1", fifo, one)
}

// Cancellation: both drivers must notice a fired context and return its
// error — both when it is already canceled at entry and when it fires
// mid-run — without hanging any worker. The det-parallel row asks for
// four workers under Deterministic order, which runs the sequential
// driver.
func TestContextCancellation(t *testing.T) {
	grid, err := models.CounterGrid(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	drivers := []struct {
		name string
		opts Options
	}{
		{"sequential", Options{}},
		{"det-parallel", Options{Workers: 4}},
		{"work-steal", Options{Workers: 4, Order: Unordered}},
	}
	for _, d := range drivers {
		t.Run(d.name+"/pre-canceled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			opts := d.opts
			opts.Ctx = ctx
			_, err := Stream(grid, opts, &DeadlockCheck{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled context: err = %v, want context.Canceled", err)
			}
		})
		t.Run(d.name+"/mid-run", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := d.opts
			opts.Ctx = ctx
			// Cancel from inside the sink once the run is clearly underway;
			// the 4^8-state space is far from finished at that point.
			fired := 0
			sink := &funcSink{onState: func() error {
				fired++
				if fired == 500 {
					cancel()
				}
				return nil
			}}
			_, err := Stream(grid, opts, sink)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
			}
		})
	}
}

// funcSink adapts a closure to the Sink interface for the cancellation
// tests.
type funcSink struct{ onState func() error }

func (f *funcSink) OnState(int, core.State, Discovery) error { return f.onState() }
func (f *funcSink) OnEdge(int, int, string) error            { return nil }
func (f *funcSink) OnExpanded(int, int) error                { return nil }
func (f *funcSink) Done(bool) error                          { return nil }
