package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bip"
	"bip/internal/faultfs"
)

// newHTTPServer mounts an already-constructed Server (tests that need
// newServer's filesystem seam) with the same cleanup newTestServer
// provides.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		for _, jb := range s.liveJobs() {
			s.cancel(jb)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return ts
}

func journalBytes(t *testing.T, recs ...journalRec) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func submitRec(id string) journalRec {
	return journalRec{Op: "submit", ID: id, FP: "fp-" + id, Req: &JobRequest{Model: pingpong}}
}

// TestJournalReplay pins the recovery semantics: submissions without a
// terminal record are pending in submission order, terminal records are
// honored wherever they appear, and numbering resumes past the highest
// id ever issued — terminal ids included, so a recovered service can
// never reuse the id of a job that already finished.
func TestJournalReplay(t *testing.T) {
	data := journalBytes(t,
		submitRec("j1"),
		submitRec("j2"),
		journalRec{Op: StateDone, ID: "j1"},
		submitRec("j3"),
		journalRec{Op: StateCanceled, ID: "j3"},
		journalRec{Op: StateFailed, ID: "j9"}, // terminal before (or without) its submit
		submitRec("j9"),
	)
	pending, maxID := replayJournal(data)
	ids := make([]string, len(pending))
	for i, r := range pending {
		ids[i] = r.ID
	}
	if len(ids) != 1 || ids[0] != "j2" {
		t.Fatalf("pending = %v, want [j2]", ids)
	}
	if maxID != 9 {
		t.Fatalf("maxID = %d, want 9", maxID)
	}
}

// TestJournalReplayTruncatedTail cuts a valid journal at every byte
// offset: replay must never fail, and cutting mid-line must behave
// exactly like cutting at the previous line boundary — the torn line
// contributes nothing.
func TestJournalReplayTruncatedTail(t *testing.T) {
	data := journalBytes(t,
		submitRec("j1"),
		submitRec("j2"),
		journalRec{Op: StateDone, ID: "j1"},
		submitRec("j3"),
	)
	pendingIDs := func(d []byte) string {
		pending, _ := replayJournal(d)
		ids := make([]string, len(pending))
		for i, r := range pending {
			ids[i] = r.ID
		}
		return strings.Join(ids, ",")
	}
	for cut := 0; cut <= len(data); cut++ {
		// A cut mid-line must replay like the previous line boundary; a
		// cut exactly at a line's closing byte (the newline itself lost)
		// still counts that fully-written record, i.e. replays like the
		// next boundary. Nothing else is acceptable.
		prev := bytes.LastIndexByte(data[:cut], '\n') + 1
		next := cut + bytes.IndexByte(data[cut:], '\n') + 1
		if bytes.IndexByte(data[cut:], '\n') < 0 {
			next = len(data)
		}
		got := pendingIDs(data[:cut])
		if atPrev, atNext := pendingIDs(data[:prev]), pendingIDs(data[:next]); got != atPrev && got != atNext {
			t.Fatalf("cut at %d: pending [%s], want [%s] (boundary %d) or [%s] (boundary %d)",
				cut, got, atPrev, prev, atNext, next)
		}
	}
}

// FuzzJournalReplay feeds arbitrary bytes — including mutated valid
// journals — into the replay. Whatever the corruption, replay must
// return (not panic), every pending record must be a well-formed
// submission, and appending garbage to any input must never grow the
// pending set with fabricated jobs beyond what the intact prefix holds.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte(`{"op":"submit","id":"j1","fp":"x","req":{"model":"m"}}` + "\n"))
	f.Add([]byte(`{"op":"submit","id":"j1","fp":"x","req":{"model":"m"}}` + "\n" + `{"op":"done","id":"j1"}`))
	f.Add([]byte(`{"op":"done","id":"j7"}` + "\n" + `not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		pending, maxID := replayJournal(data)
		if maxID < 0 {
			t.Fatalf("negative maxID %d", maxID)
		}
		for _, r := range pending {
			if r.Op != "submit" || r.Req == nil || r.FP == "" || r.ID == "" {
				t.Fatalf("malformed pending record %+v survived replay", r)
			}
		}
		// Garbage appended after a terminated journal can only end the
		// replay early, never fabricate pending work. (After an
		// UNterminated journal it may corrupt the torn last line — which
		// replay then rightly drops, and dropping a terminal record only
		// re-runs an idempotent job.)
		if len(data) > 0 && data[len(data)-1] == '\n' {
			garbled := append(append([]byte(nil), data...), []byte("\x00{torn")...)
			after, _ := replayJournal(garbled)
			if len(after) > len(pending) {
				t.Fatalf("garbage tail grew pending set from %d to %d", len(pending), len(after))
			}
		}
	})
}

// TestStoreReportRoundTrip: put writes the durable copy atomically
// (temp + rename), and get through an empty memory tier returns exactly
// what was stored; unknown fingerprints and corrupt entries are plain
// misses.
func TestStoreReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, pending, _, err := openStore(dir, faultfs.OS)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh store has %d pending", len(pending))
	}
	if err := st.compact(nil); err != nil {
		t.Fatal(err)
	}
	sys, err := bip.Parse(pingpong)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bip.Verify(sys)
	if err != nil {
		t.Fatal(err)
	}
	newReports(1, st).put("abc123", rep)
	disk := newReports(1, st)
	got, ok := disk.get("abc123")
	if !ok {
		t.Fatal("stored report missing")
	}
	if got.States != rep.States {
		t.Fatalf("round trip changed States: %d != %d", got.States, rep.States)
	}
	if _, ok := disk.get("nope"); ok {
		t.Fatal("hit on unknown fingerprint")
	}
	if err := os.WriteFile(filepath.Join(dir, "reports", "bad.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := disk.get("bad"); ok {
		t.Fatal("hit on corrupt report")
	}
	// No stray temp files: the only entries are the journal and reports/.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); name != journalName && name != "reports" {
			t.Fatalf("stray file %q in data dir", name)
		}
	}
}

// TestDegradeOnJournalFault: a journal write fault after startup flips
// the service to in-memory mode — the submission that hit the fault
// still runs to done, /healthz reports degraded, and the metrics count
// the store error. Never a failed job.
func TestDegradeOnJournalFault(t *testing.T) {
	boom := errors.New("disk full")
	h := &faultfs.Hooks{}
	armed := false
	h.OnWrite = func(name string, n int) error {
		if armed && strings.HasSuffix(name, journalName) {
			return boom
		}
		return nil
	}
	s, err := newServer(Config{Tick: 5 * time.Millisecond, DataDir: t.TempDir()}, h)
	if err != nil {
		t.Fatal(err)
	}
	s.store.logf = t.Logf
	ts := newHTTPServer(t, s)
	armed = true

	v, status := submit(t, ts, JobRequest{Model: pingpong})
	if status != http.StatusAccepted {
		t.Fatalf("submit under journal fault: status %d, want 202", status)
	}
	fin := waitTerminal(t, ts, v.ID, 10*time.Second)
	if fin.State != StateDone {
		t.Fatalf("job under journal fault ended %s (err %q), want done", fin.State, fin.Error)
	}
	if !s.Degraded() {
		t.Fatal("journal fault did not degrade the store")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "degraded" || health.StoreErrors == 0 {
		t.Fatalf("healthz = %+v, want degraded with store errors", health)
	}

	// Degraded is a mode, not an outage: more work is still accepted and
	// completed, purely in memory.
	v2, status := submit(t, ts, JobRequest{Model: gridModel(3, 3)})
	if status != http.StatusAccepted {
		t.Fatalf("post-degrade submit: status %d", status)
	}
	if fin := waitTerminal(t, ts, v2.ID, 10*time.Second); fin.State != StateDone {
		t.Fatalf("post-degrade job ended %s, want done", fin.State)
	}
}

// TestDegradeOnReportFault: a report-store fault (CreateTemp refused)
// degrades instead of failing the job, and leaves no half-written
// report behind.
func TestDegradeOnReportFault(t *testing.T) {
	boom := errors.New("no space")
	h := &faultfs.Hooks{}
	armed := false
	h.OnCreateTemp = func(pattern string) error {
		if armed && strings.HasPrefix(pattern, "report-") {
			return boom
		}
		return nil
	}
	dir := t.TempDir()
	s, err := newServer(Config{Tick: 5 * time.Millisecond, DataDir: dir}, h)
	if err != nil {
		t.Fatal(err)
	}
	s.store.logf = t.Logf
	ts := newHTTPServer(t, s)
	armed = true

	v, _ := submit(t, ts, JobRequest{Model: pingpong})
	if fin := waitTerminal(t, ts, v.ID, 10*time.Second); fin.State != StateDone {
		t.Fatalf("job under report fault ended %s, want done", fin.State)
	}
	waitFor(t, 5*time.Second, func() bool { return s.Degraded() })
	entries, err := os.ReadDir(filepath.Join(dir, "reports"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("report fault left %d entries in reports/", len(entries))
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
