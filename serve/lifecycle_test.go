package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bip/internal/faultfs"
)

// This file pins the job lifecycle against the journal and the
// two-tier report store: each terminal transition is journaled once, a
// report answered from either tier is a cache hit, and a restart reads
// no stored report until a submission asks for it.

// journalOps returns the ops journaled for id, in order.
func journalOps(t *testing.T, dir, id string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, line := range strings.Split(string(data), "\n") {
		var rec journalRec
		if json.Unmarshal([]byte(line), &rec) == nil && rec.ID == id {
			ops = append(ops, rec.Op)
		}
	}
	return ops
}

// TestLifecycleCancelQueuedJournaledOnce: a DELETE of a queued job
// journals its canceled record before answering, and the worker that
// later dequeues the canceled job writes nothing more.
func TestLifecycleCancelQueuedJournaledOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Pool: 1, Queue: 4, Tick: 5 * time.Millisecond, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	running, _ := submit(t, ts, longJob())
	waitState(t, ts, running.ID, StateRunning, 5*time.Second)
	queued, _ := submit(t, ts, JobRequest{Model: gridModel(4, 3)})
	if v := cancelJob(t, ts, queued.ID); v.State != StateCanceled {
		t.Fatalf("canceled queued job state %s", v.State)
	}
	if ops := journalOps(t, dir, queued.ID); strings.Join(ops, ",") != "submit,canceled" {
		t.Fatalf("journal after DELETE holds %v for %s, want [submit canceled]", ops, queued.ID)
	}
	cancelJob(t, ts, running.ID)
	waitTerminal(t, ts, running.ID, 5*time.Second)
	// Drain: once Shutdown returns, the worker has dequeued the canceled
	// job.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if ops := journalOps(t, dir, queued.ID); strings.Join(ops, ",") != "submit,canceled" {
		t.Fatalf("journal after drain holds %v for %s, want [submit canceled]", ops, queued.ID)
	}
}

// reportFiles counts the reports persisted under dir.
func reportFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "reports"))
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// metricsBody fetches /metrics.
func metricsBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestLifecycleDiskHitCountsAsHit: with room for one report in memory,
// a resubmission whose report was evicted is answered from disk, and
// that answer counts as a hit, not a miss.
func TestLifecycleDiskHitCountsAsHit(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Pool: 1, CacheSize: 1, Tick: 5 * time.Millisecond, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	first := JobRequest{Model: pingpong}
	for _, req := range []JobRequest{first, {Model: gridModel(3, 3)}} {
		v, _ := submit(t, ts, req)
		if fin := waitTerminal(t, ts, v.ID, 10*time.Second); fin.State != StateDone {
			t.Fatalf("job %s ended %s", v.ID, fin.State)
		}
	}
	// Both reports are on disk, so the second has also taken the one
	// memory slot and evicted the first.
	waitFor(t, 5*time.Second, func() bool { return reportFiles(t, dir) == 2 })

	again, status := submit(t, ts, first)
	if status != http.StatusOK || !again.Cached {
		t.Fatalf("evicted report not served from disk: status %d view %+v", status, again)
	}
	if hits, misses, _ := s.CacheStats(); hits != 1 || misses != 2 {
		t.Fatalf("CacheStats hits=%d misses=%d, want 1 and 2", hits, misses)
	}
	metrics := metricsBody(t, ts.URL)
	for _, want := range []string{"bipd_cache_hits 1\n", "bipd_cache_misses 2\n"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// reportReads is a filesystem that counts the reads of stored reports.
type reportReads struct {
	faultfs.FS
	mu sync.Mutex
	n  int
}

func (r *reportReads) ReadFile(name string) ([]byte, error) {
	if filepath.Base(filepath.Dir(name)) == "reports" {
		r.mu.Lock()
		r.n++
		r.mu.Unlock()
	}
	return r.FS.ReadFile(name)
}

func (r *reportReads) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// TestRecoverReadsNoReportsUntilAsked: a restart over a store of N
// reports reads none of them; a resubmission reads its own report once
// and is then served from memory.
func TestRecoverReadsNoReportsUntilAsked(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Pool: 1, Tick: 5 * time.Millisecond, DataDir: dir}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newHTTPServer(t, s1)
	reqs := []JobRequest{{Model: pingpong}, {Model: gridModel(2, 2)}, {Model: gridModel(2, 3)}}
	for _, req := range reqs {
		v, _ := submit(t, ts1, req)
		waitTerminal(t, ts1, v.ID, 10*time.Second)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if n := reportFiles(t, dir); n != len(reqs) {
		t.Fatalf("%d reports stored, want %d", n, len(reqs))
	}

	fs := &reportReads{FS: faultfs.OS}
	s2, err := newServer(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newHTTPServer(t, s2)
	if n := fs.count(); n != 0 {
		t.Fatalf("restart read %d stored reports, want 0", n)
	}
	for i := 1; i <= 2; i++ {
		v, status := submit(t, ts2, reqs[1])
		if status != http.StatusOK || !v.Cached {
			t.Fatalf("resubmission %d not served from the store: status %d view %+v", i, status, v)
		}
		if n := fs.count(); n != 1 {
			t.Fatalf("after resubmission %d: %d stored reports read, want 1", i, n)
		}
	}
}

// TestLifecycleTerminalJobsDropRunInputs: the server keeps every job
// for its lifetime, so a job that turns terminal — by running, by a
// cache hit or by a DELETE while queued — drops its parsed system and
// options.
func TestLifecycleTerminalJobsDropRunInputs(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1, Tick: 5 * time.Millisecond})
	ran, _ := submit(t, ts, JobRequest{Model: pingpong})
	waitTerminal(t, ts, ran.ID, 10*time.Second)
	waitFor(t, 5*time.Second, func() bool { _, _, size := s.CacheStats(); return size == 1 })
	hit, _ := submit(t, ts, JobRequest{Model: pingpong})
	if !hit.Cached {
		t.Fatalf("resubmission not answered from the report store: %+v", hit)
	}
	blocker, _ := submit(t, ts, longJob())
	waitState(t, ts, blocker.ID, StateRunning, 5*time.Second)
	queued, _ := submit(t, ts, JobRequest{Model: gridModel(4, 3)})
	cancelJob(t, ts, queued.ID)
	for _, id := range []string{ran.ID, hit.ID, queued.ID} {
		s.mu.Lock()
		jb := s.jobs[id]
		s.mu.Unlock()
		jb.mu.Lock()
		state, sys, opts := jb.state, jb.sys, jb.opts
		jb.mu.Unlock()
		if !isTerminal(state) || sys != nil || opts != nil {
			t.Fatalf("job %s (%s) keeps its run inputs: sys %v, %d options", id, state, sys != nil, len(opts))
		}
	}
	cancelJob(t, ts, blocker.ID)
	waitTerminal(t, ts, blocker.ID, 5*time.Second)
}

// TestLifecycleCancelRaceSettlesOnce: DELETEs race the workers for a
// batch of queued jobs. Whichever side wins each job, it ends exactly
// once: one terminal record in the journal and one count in the
// terminal counters.
func TestLifecycleCancelRaceSettlesOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Pool: 2, Queue: 16, Tick: 5 * time.Millisecond, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	const jobs = 12
	ids := make([]string, jobs)
	for i := range ids {
		// Distinct fingerprints: every job is admitted, none is a hit.
		v, status := submit(t, ts, JobRequest{Model: gridModel(4, 8+i)})
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, status)
		}
		ids[i] = v.ID
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}(id)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		ops := journalOps(t, dir, id)
		if len(ops) != 2 || ops[0] != "submit" || !isTerminal(ops[1]) {
			t.Fatalf("journal holds %v for %s, want submit and one terminal record", ops, id)
		}
	}
	if ended := s.done.Load() + s.failed.Load() + s.canceled.Load(); ended != jobs {
		t.Fatalf("terminal counters sum to %d, want %d", ended, jobs)
	}
}
