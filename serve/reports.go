package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"sync"

	"bip"
	"bip/check"
	"bip/prop"
)

// fingerprint content-addresses a verification: two submissions with
// the same fingerprint are guaranteed the same Report, so a completed
// one answers both.
//
// What goes in — everything that can change the report:
//
//   - the model source, byte-for-byte (the compiled system is a pure
//     function of it);
//   - each property's canonical compiled form (prop.String()), in
//     submission order — order fixes the report's property names and
//     slice layout;
//   - the resolved MaxStates bound (0 normalizes to
//     check.DefaultMaxStates): it decides Truncated and which verdicts
//     are conclusive;
//   - Reduce: reduction changes the visited set and the report's
//     reduction accounting.
//
// What stays out — Workers, Order, Seen, MemBudget, and the timeout.
// The engine pins (differential tests, PRs 5–7) that these never
// change verdicts: any worker count and either order produce the same
// violated/conclusive flags, and seen-set/budget choices only move
// memory accounting. Two caveats, both benign: a cached report's
// memory/throughput accounting (SeenBytes, PeakFrontierBytes, ...)
// reflects the configuration of the run that populated the cache, and
// under Order=fast the particular counterexample witness may differ
// between runs — which the Unordered contract already allows. Failed,
// canceled, and timed-out jobs are never cached, so resource options
// cannot leak a partial result across configurations.
func fingerprint(model string, props []prop.Prop, o JobOptions) string {
	h := sha256.New()
	writeBlob(h, "bipd-fp-v1")
	writeBlob(h, model)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(props)))
	h.Write(n[:])
	for _, p := range props {
		writeBlob(h, p.String())
	}
	maxStates := o.MaxStates
	if maxStates == 0 {
		maxStates = check.DefaultMaxStates
	}
	binary.LittleEndian.PutUint64(n[:], uint64(maxStates))
	h.Write(n[:])
	if o.Reduce {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeBlob writes a length-prefixed string so adjacent fields cannot
// alias ("ab"+"c" vs "a"+"bc").
func writeBlob(h interface{ Write([]byte) (int, error) }, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

// reports is the two-tier report store, keyed by fingerprint: a
// bounded LRU in memory in front of the durable copies under
// DataDir/reports (the disk tier is absent without DataDir). Nothing
// is read at startup; a disk hit re-warms memory. Stored *bip.Report
// values are shared between hits and must be treated as immutable.
type reports struct {
	disk *store // nil without DataDir

	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	byKey  map[string]*list.Element
	hits   int64
	misses int64
}

type reportEntry struct {
	fp  string
	rep *bip.Report
}

func newReports(capacity int, disk *store) *reports {
	return &reports{
		disk:  disk,
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

// get looks fp up in memory, then on disk. A hit in either tier counts
// as a hit.
func (r *reports) get(fp string) (*bip.Report, bool) {
	r.mu.Lock()
	if el, ok := r.byKey[fp]; ok {
		r.ll.MoveToFront(el)
		r.hits++
		rep := el.Value.(*reportEntry).rep
		r.mu.Unlock()
		return rep, true
	}
	r.mu.Unlock()
	rep := r.load(fp)
	r.mu.Lock()
	defer r.mu.Unlock()
	if rep == nil {
		r.misses++
		return nil, false
	}
	r.hits++
	r.remember(fp, rep)
	return rep, true
}

// put stores a computed report: memory first, then the durable copy.
func (r *reports) put(fp string, rep *bip.Report) {
	r.mu.Lock()
	r.remember(fp, rep)
	r.mu.Unlock()
	r.persist(fp, rep)
}

// remember makes fp the most recently used memory entry, evicting the
// least recently used past capacity. Callers hold r.mu.
func (r *reports) remember(fp string, rep *bip.Report) {
	if el, ok := r.byKey[fp]; ok {
		el.Value.(*reportEntry).rep = rep
		r.ll.MoveToFront(el)
		return
	}
	r.byKey[fp] = r.ll.PushFront(&reportEntry{fp: fp, rep: rep})
	for r.ll.Len() > r.cap {
		el := r.ll.Back()
		r.ll.Remove(el)
		delete(r.byKey, el.Value.(*reportEntry).fp)
	}
}

// load reads the durable copy of fp; a missing or unreadable entry is
// a miss (nil).
func (r *reports) load(fp string) *bip.Report {
	if r.disk == nil {
		return nil
	}
	data, err := r.disk.fs.ReadFile(r.disk.reportPath(fp))
	if err != nil {
		return nil
	}
	var rep bip.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil
	}
	return &rep
}

// persist writes the durable copy of a report, atomically so readers
// only ever see whole reports. A fault degrades the store instead of
// failing the caller.
func (r *reports) persist(fp string, rep *bip.Report) {
	if r.disk == nil || !r.disk.writable() {
		return
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return
	}
	if err := r.disk.writeAtomic("report-*", r.disk.reportPath(fp), data); err != nil {
		r.disk.degrade("report write", err)
	}
}

func (r *reports) stats() (hits, misses int64, size int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits, r.misses, r.ll.Len()
}
