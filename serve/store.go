package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"bip/internal/faultfs"
)

// This file is bipd's crash-safe persistence: an append-only job
// journal plus a content-addressed on-disk report store, both rooted at
// Config.DataDir. The two structures split the durability problem along
// its natural seam:
//
//   - The JOURNAL records intent: one fsync'd JSON line per lifecycle
//     transition (submit, then done/failed/canceled). After a crash the
//     replay rebuilds exactly the set of jobs that were accepted but
//     never reached a terminal state — those are re-queued. Re-running
//     them is safe because jobs are content-addressed: the fingerprint
//     of a recovered submission either already has a report on disk
//     (the crash hit between report write and journal append, so the
//     job is served from the store without an exploration) or the
//     re-execution recomputes the identical report.
//
//   - The REPORT STORE records outcomes: reports/<fingerprint>.json,
//     written to a temp file and renamed into place, so a reader never
//     observes a half-written report and a crash mid-write leaves only
//     a stray temp file, never a corrupt entry. It is the disk tier of
//     the reports type (reports.go), read only when a lookup misses
//     memory, never in bulk at startup.
//
// Server.finish writes both for a job reaching a terminal state: the
// report first, then the terminal record, so the journal never names a
// finished job whose report the store lacks.
//
// The journal tolerates a torn tail: a crash can truncate the final
// line, so replay stops at the first malformed record instead of
// failing (replayJournal is a pure function, fuzz-tested against
// arbitrary corruption). On restart the journal is compacted — only the
// still-pending submissions are rewritten, via temp+rename — so it
// stays proportional to the live job set, not service lifetime.
//
// Persistence must never take the service down: any write fault after
// startup flips the store into DEGRADED mode — journaling and report
// writes stop, bipd_store_errors counts the faults, and the service
// keeps verifying purely in memory. Only startup failures (unusable
// DataDir) are fatal, because then fail-fast beats silently running
// without the durability the operator asked for.

// journalRec is one journal line. Op "submit" carries the request and
// its fingerprint; terminal ops ("done", "failed", "canceled") carry
// only the id (and the error for "failed").
type journalRec struct {
	Op  string      `json:"op"`
	ID  string      `json:"id"`
	FP  string      `json:"fp,omitempty"`
	Req *JobRequest `json:"req,omitempty"`
	Err string      `json:"err,omitempty"`
}

func (r journalRec) terminal() bool {
	return r.Op == StateDone || r.Op == StateFailed || r.Op == StateCanceled
}

// replayJournal parses journal bytes into the submissions that never
// reached a terminal state, in submission order, plus the highest
// numeric job id seen. It is deliberately total: a torn final line
// (crash mid-append) or arbitrary corruption ends the replay at the
// last intact record — pending jobs re-run idempotently, so dropping a
// suffix is always safe, while trusting a half-written line never is.
// Terminal records are honored wherever they appear, even before their
// submit (the compacted journal can reorder across restarts).
func replayJournal(data []byte) (pending []journalRec, maxID int64) {
	var order []string
	byID := make(map[string]*journalEntry)
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRec
		if err := json.Unmarshal(line, &rec); err != nil {
			return collectPending(order, byID), maxID
		}
		if rec.ID == "" {
			continue
		}
		if n, err := strconv.ParseInt(strings.TrimPrefix(rec.ID, "j"), 10, 64); err == nil && n > maxID {
			maxID = n
		}
		e := byID[rec.ID]
		if e == nil {
			e = &journalEntry{}
			byID[rec.ID] = e
		}
		switch {
		case rec.Op == "submit":
			if rec.Req == nil || rec.FP == "" {
				continue
			}
			if e.rec.Op == "" {
				order = append(order, rec.ID)
			}
			e.rec = rec
		case rec.terminal():
			e.terminal = true
		}
	}
	return collectPending(order, byID), maxID
}

// journalEntry is replayJournal's working state for one job id.
type journalEntry struct {
	rec      journalRec
	terminal bool
}

func collectPending(order []string, byID map[string]*journalEntry) []journalRec {
	var pending []journalRec
	for _, id := range order {
		if e := byID[id]; !e.terminal {
			pending = append(pending, e.rec)
		}
	}
	return pending
}

const journalName = "journal.log"

// store is the persistence layer of one Server. All disk operations go
// through fs (faultfs.OS in production), which is the fault-injection
// seam the degradation tests use.
type store struct {
	dir  string
	fs   faultfs.FS
	logf func(format string, args ...any)

	mu       sync.Mutex
	journal  faultfs.File
	degraded bool
	// silent suppresses journal/report writes without counting them as
	// faults — the Crash() harness hook, simulating a kill -9 that never
	// got to write its terminal records.
	silent bool

	errors atomic.Int64
}

// openStore prepares the data directory and replays the journal. It
// returns the store (journal not yet reopened — call compact with the
// surviving submissions first), the pending records, and the highest
// job id the journal ever issued so numbering resumes past it. Startup
// failures are returned, not degraded over: an unusable DataDir at boot
// is an operator error.
func openStore(dir string, fs faultfs.FS) (*store, []journalRec, int64, error) {
	s := &store{dir: dir, fs: fs, logf: log.Printf}
	if err := fs.MkdirAll(s.reportsDir(), 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: data dir: %w", err)
	}
	data, err := fs.ReadFile(s.journalPath())
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	pending, maxID := replayJournal(data)
	return s, pending, maxID, nil
}

func (s *store) journalPath() string { return filepath.Join(s.dir, journalName) }
func (s *store) reportsDir() string  { return filepath.Join(s.dir, "reports") }
func (s *store) reportPath(fp string) string {
	return filepath.Join(s.reportsDir(), fp+".json")
}

// compact rewrites the journal to exactly the surviving submissions
// (atomically, so a crash mid-compaction leaves the old journal intact)
// and opens it for appending. Runs once, before the worker pool starts.
func (s *store) compact(keep []journalRec) error {
	var buf bytes.Buffer
	for _, rec := range keep {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("serve: journal compact: %w", err)
		}
		buf.Write(append(line, '\n'))
	}
	if err := s.writeAtomic("journal-*", s.journalPath(), buf.Bytes()); err != nil {
		return fmt.Errorf("serve: journal compact: %w", err)
	}
	f, err := s.fs.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("serve: journal reopen: %w", err)
	}
	s.mu.Lock()
	s.journal = f
	s.mu.Unlock()
	return nil
}

// writeAtomic replaces dst with data through a temp file in the data
// directory: write, fsync, close, rename, so a reader or a restart sees
// the old content or the new, never a torn file. On failure the temp
// file is removed.
func (s *store) writeAtomic(pattern, dst string, data []byte) error {
	tmp, err := s.fs.CreateTemp(s.dir, pattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmp.Name(), dst)
	}
	if err != nil {
		s.fs.Remove(tmp.Name())
	}
	return err
}

// append journals one record, fsync'd so an acknowledged submission
// survives an immediate crash. A write fault degrades the store instead
// of failing the caller: the job proceeds in memory.
func (s *store) append(rec journalRec) {
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded || s.silent || s.journal == nil {
		return
	}
	if _, err := s.journal.Write(line); err != nil {
		s.degradeLocked("journal write", err)
		return
	}
	if err := s.journal.Sync(); err != nil {
		s.degradeLocked("journal sync", err)
	}
}

func (s *store) appendSubmit(id, fp string, req JobRequest) {
	s.append(journalRec{Op: "submit", ID: id, FP: fp, Req: &req})
}

func (s *store) appendTerminal(state, id, errMsg string) {
	s.append(journalRec{Op: state, ID: id, Err: errMsg})
}

// writable reports whether persistence writes still go to disk:
// neither degraded nor silenced.
func (s *store) writable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.degraded && !s.silent
}

// degrade flips the store into in-memory mode: the fault is logged and
// counted, the journal handle is dropped, and every later persistence
// call becomes a no-op. The service itself keeps running — degradation
// must never fail a job.
func (s *store) degrade(stage string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.degradeLocked(stage, err)
}

func (s *store) degradeLocked(stage string, err error) {
	s.errors.Add(1)
	if s.degraded {
		return
	}
	s.degraded = true
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	s.logf("bipd: persistence degraded to in-memory mode (%s: %v)", stage, err)
}

// isDegraded reports whether a write fault has flipped the store into
// in-memory mode.
func (s *store) isDegraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// goSilent stops all journal and report writes without marking the
// store degraded — the Crash() harness hook. The journal file keeps
// whatever it had, exactly like a process killed with SIGKILL.
func (s *store) goSilent() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.silent = true
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
}
