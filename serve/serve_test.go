package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bip"
)

// pingpong is examples/pingpong.bip inline: a 22-state rally, done in
// well under a tick.
const pingpong = `system pair
atom Ping {
  var n: int = 0
  port hit(n), back
  location a, b
  init a
  from a to b on hit when n < 10 do n := n + 1
  from b to a on back
}
instance l : Ping
instance r : Ping
connector hit = l.hit + r.hit
connector back = l.back + r.back
priority back < hit
`

// gridModel emits a textual counter grid: n independent modulo-k
// counters, k^n reachable states, no deadlock — arbitrarily large
// keep-busy work for cancellation and SSE tests.
func gridModel(n, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "system grid\natom Counter {\n")
	fmt.Fprintf(&b, "  var c: int = 0\n  port inc\n  location s\n  init s\n")
	fmt.Fprintf(&b, "  from s to s on inc do c := (c + 1) %% %d\n}\n", k)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "instance t%d : Counter\n", i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "connector inc%d = t%d.inc\n", i, i)
	}
	return b.String()
}

// longJob is a submission that cannot finish within any test's
// lifetime: ~6e9 states under a huge bound, but checked with a
// conclusive-only-at-exhaustion invariant so nothing early-exits.
func longJob() JobRequest {
	return JobRequest{
		Model:      gridModel(12, 6),
		Properties: []string{"always(t0.c >= 0)"},
		Options:    JobOptions{MaxStates: 1 << 30, TimeoutMS: 120_000},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		// Cancel whatever is still live so the drain is prompt.
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
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req JobRequest) (JobView, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	json.NewDecoder(resp.Body).Decode(&v)
	return v
}

func isTerminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string, within time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		v := getJob(t, ts, id)
		if isTerminal(v.State) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal within %s (state %s)", id, within, v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitState(t *testing.T, ts *httptest.Server, id, want string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		v := getJob(t, ts, id)
		if v.State == want {
			return
		}
		if isTerminal(v.State) || time.Now().After(deadline) {
			t.Fatalf("job %s: want state %s, got %s", id, want, v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobLifecycleAndCacheHit is the service's happy path: submit,
// poll to completion, read the verdict — then resubmit the identical
// job and get the cached report without a second exploration.
func TestJobLifecycleAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Tick: 10 * time.Millisecond})
	req := JobRequest{
		Model: pingpong,
		// Note: not deadlockfree — the rally deadlocks by design once l
		// stops offering hit at n == 10.
		Properties: []string{"always(l.n <= 10)", "always(r.n <= 10)"},
	}
	v, status := submit(t, ts, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", status)
	}
	if v.ID == "" || isTerminal(v.State) {
		t.Fatalf("fresh job view: %+v", v)
	}
	fin := waitTerminal(t, ts, v.ID, 10*time.Second)
	if fin.State != StateDone || fin.Report == nil {
		t.Fatalf("job ended %s (err %q), want done with report", fin.State, fin.Error)
	}
	if !fin.Report.OK || len(fin.Report.Properties) != 2 {
		t.Fatalf("report: %+v", fin.Report)
	}
	for _, p := range fin.Report.Properties {
		if p.Violated || !p.Conclusive {
			t.Fatalf("property %s: violated=%v conclusive=%v", p.Name, p.Violated, p.Conclusive)
		}
	}
	if fin.Cached {
		t.Fatal("first run reported as cached")
	}

	// Identical resubmission: answered from the cache, job born done.
	v2, status := submit(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200", status)
	}
	if !v2.Cached || v2.State != StateDone || v2.Report == nil {
		t.Fatalf("resubmit view: %+v", v2)
	}
	if v2.Report.States != fin.Report.States {
		t.Fatalf("cached report diverged: %d states vs %d", v2.Report.States, fin.Report.States)
	}
	if hits, _, _ := s.CacheStats(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}

	// A different property string is a different fingerprint: miss.
	req.Properties = []string{"always(l.n <= 9)"}
	v3, _ := submit(t, ts, req)
	if v3.Cached {
		t.Fatal("distinct property served from cache")
	}
	waitTerminal(t, ts, v3.ID, 10*time.Second)
}

// TestCancelRunningWithinTick pins the cancellation latency contract:
// DELETE on a running job reaches the canceled state promptly — the
// engine observes the context at expansion granularity, well inside a
// progress tick — rather than after the (hour-scale) full exploration.
func TestCancelRunningWithinTick(t *testing.T) {
	const tick = 20 * time.Millisecond
	_, ts := newTestServer(t, Config{Tick: tick})
	v, status := submit(t, ts, longJob())
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	waitState(t, ts, v.ID, StateRunning, 5*time.Second)
	start := time.Now()
	cancelJob(t, ts, v.ID)
	fin := waitTerminal(t, ts, v.ID, 2*time.Second)
	elapsed := time.Since(start)
	if fin.State != StateCanceled {
		t.Fatalf("job ended %s, want canceled", fin.State)
	}
	// Generous CI headroom, but still orders of magnitude below the
	// exploration's natural runtime — the bound is what pins promptness.
	if limit := 50 * tick; elapsed > limit {
		t.Fatalf("cancel took %s, want < %s", elapsed, limit)
	}
}

// TestCancelQueuedJob: a job canceled before a worker picks it up goes
// terminal immediately and never runs.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, Queue: 4, Tick: 10 * time.Millisecond})
	running, _ := submit(t, ts, longJob())
	waitState(t, ts, running.ID, StateRunning, 5*time.Second)
	queued, status := submit(t, ts, longJob())
	if status != http.StatusAccepted {
		t.Fatalf("second submit status %d", status)
	}
	if got := getJob(t, ts, queued.ID); got.State != StateQueued {
		t.Fatalf("second job state %s, want queued", got.State)
	}
	if v := cancelJob(t, ts, queued.ID); v.State != StateCanceled {
		t.Fatalf("canceled queued job state %s", v.State)
	}
	cancelJob(t, ts, running.ID)
	waitTerminal(t, ts, running.ID, 5*time.Second)
}

// TestQueueFull429: submissions beyond pool+queue are rejected, not
// silently dropped or blocked.
func TestQueueFull429(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, Queue: 1, Tick: 10 * time.Millisecond})
	first, _ := submit(t, ts, longJob())
	waitState(t, ts, first.ID, StateRunning, 5*time.Second)
	second, status := submit(t, ts, longJob())
	if status != http.StatusAccepted {
		t.Fatalf("second submit status %d", status)
	}
	if _, status := submit(t, ts, longJob()); status != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", status)
	}
	cancelJob(t, ts, second.ID)
	cancelJob(t, ts, first.ID)
	waitTerminal(t, ts, first.ID, 5*time.Second)
	waitTerminal(t, ts, second.ID, 5*time.Second)
}

// TestSSEProgressAndTerminalEvent: the events stream delivers progress
// snapshots while the job runs and a final non-droppable terminal
// event.
func TestSSEProgressAndTerminalEvent(t *testing.T) {
	_, ts := newTestServer(t, Config{Tick: 5 * time.Millisecond})
	v, _ := submit(t, ts, longJob())
	waitState(t, ts, v.ID, StateRunning, 5*time.Second)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var progress int
	var sawDone bool
	var lastEvent string
	var last Event
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			lastEvent = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				t.Fatalf("bad SSE payload: %v", err)
			}
			switch lastEvent {
			case "progress":
				progress++
				if last.Progress == nil || last.Progress.States == 0 {
					t.Fatalf("progress event without stats: %+v", last)
				}
				if progress == 3 {
					cancelJob(t, ts, v.ID)
				}
			case "done":
				sawDone = true
			}
		}
		if sawDone {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progress < 3 || !sawDone {
		t.Fatalf("saw %d progress events, done=%v", progress, sawDone)
	}
	if last.State != StateCanceled {
		t.Fatalf("terminal event state %s, want canceled", last.State)
	}
}

// TestJobTimeout: a job over its wall-clock budget fails with a
// timeout error instead of running forever.
func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Tick: 5 * time.Millisecond})
	req := longJob()
	req.Options.TimeoutMS = 50
	v, _ := submit(t, ts, req)
	fin := waitTerminal(t, ts, v.ID, 5*time.Second)
	if fin.State != StateFailed || !strings.Contains(fin.Error, "timeout") {
		t.Fatalf("job ended %s (err %q), want failed with timeout", fin.State, fin.Error)
	}
}

// TestShutdownDrainsAndRejects: Shutdown lets accepted work finish,
// and the server refuses new submissions while (and after) draining.
func TestShutdownDrainsAndRejects(t *testing.T) {
	s, err := New(Config{Tick: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	v, status := submit(t, ts, JobRequest{Model: pingpong})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if fin := getJob(t, ts, v.ID); fin.State != StateDone {
		t.Fatalf("accepted job ended %s after drain, want done", fin.State)
	}
	if _, status := submit(t, ts, JobRequest{Model: pingpong}); status != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit status %d, want 503", status)
	}
}

// TestBadSubmissions: malformed input is the client's problem — a 400
// with a reason, never a job and never a panic.
func TestBadSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{"model": `},
		{"bad model", `{"model": "system ("}`},
		{"bad property", `{"model": ` + jsonQuote(pingpong) + `, "properties": ["alwayss((("]}`},
		{"bad order", `{"model": ` + jsonQuote(pingpong) + `, "options": {"order": "zig"}}`},
		{"bad seen", `{"model": ` + jsonQuote(pingpong) + `, "options": {"seen": "fuzzy"}}`},
		{"negative workers", `{"model": ` + jsonQuote(pingpong) + `, "options": {"workers": -1}}`},
		{"mem_budget without order fast", `{"model": ` + jsonQuote(pingpong) + `, "options": {"mem_budget": 4096}}`},
		{"mem_budget under order det", `{"model": ` + jsonQuote(pingpong) + `, "options": {"mem_budget": 4096, "order": "det"}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e apiError
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("error body missing: %v", err)
			}
		})
	}
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestMemBudgetUnderFastOrder: the frontier budget that order det
// rejects (TestBadSubmissions) is accepted where it bounds something,
// the work-stealing frontier, and the job completes with its verdict.
func TestMemBudgetUnderFastOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v, status := submit(t, ts, JobRequest{
		Model:   pingpong,
		Options: JobOptions{MemBudget: 4096, Order: "fast", Workers: 2},
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", status)
	}
	fin := waitTerminal(t, ts, v.ID, 10*time.Second)
	if fin.State != StateDone || fin.Report == nil || fin.Report.States != 21 {
		t.Fatalf("job ended %s (err %q, report %+v), want done with 21 states", fin.State, fin.Error, fin.Report)
	}
}

// TestHugeWorkerRequestClamped: the request's worker count is clamped to
// the server's GOMAXPROCS, so a job asking for 10^9 work-stealing
// workers neither allocates per-worker machinery for all of them nor
// fails — it completes with the verdict of any other worker count.
func TestHugeWorkerRequestClamped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v, status := submit(t, ts, JobRequest{
		Model:      pingpong,
		Properties: []string{"always(l.n <= 10)"},
		Options:    JobOptions{Workers: 1_000_000_000, Order: "fast"},
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", status)
	}
	fin := waitTerminal(t, ts, v.ID, 10*time.Second)
	if fin.State != StateDone || fin.Report == nil {
		t.Fatalf("job ended %s (err %q), want done with report", fin.State, fin.Error)
	}
	p := fin.Report.Properties[0]
	if !fin.Report.OK || p.Violated || !p.Conclusive || fin.Report.States != 21 {
		t.Fatalf("report: ok=%v violated=%v conclusive=%v states=%d, want a conclusive pass over 21 states",
			fin.Report.OK, p.Violated, p.Conclusive, fin.Report.States)
	}
}

// jsonQuote JSON-quotes a string for hand-built request bodies.
func jsonQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// defective is a model with a seeded flaw: location c can never be
// reached, so lint must report BIP001 at its declaration site.
const defective = `system flawed
atom A {
  port go
  location a, b, c
  init a
  from a to b on go
  from b to a on go
}
instance x : A
connector go = x.go
`

// TestLintEndpoint: POST /v1/lint runs static analysis without
// touching the job queue — a seeded defect comes back as a positioned
// diagnostic, a clean model comes back clean, and garbage is a 400.
func TestLintEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post := func(body string) (*http.Response, LintResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/lint", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		var lr LintResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
				t.Fatal(err)
			}
		}
		return resp, lr
	}

	resp, lr := post(`{"model": ` + jsonQuote(defective) + `}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lint status %d, want 200", resp.StatusCode)
	}
	if lr.Clean {
		t.Fatalf("defective model reported clean: %+v", lr.Diagnostics)
	}
	found := false
	for _, d := range lr.Diagnostics {
		if d.Code == "BIP001" {
			found = true
			if d.Line == 0 {
				t.Fatalf("BIP001 without a source position: %+v", d)
			}
		}
	}
	if !found {
		t.Fatalf("no BIP001 for the unreachable location: %+v", lr.Diagnostics)
	}

	// pingpong is warning-free (its priority entanglement is info-level),
	// and a clean answer still carries a non-null diagnostics array.
	resp, lr = post(`{"model": ` + jsonQuote(pingpong) + `}`)
	if resp.StatusCode != http.StatusOK || !lr.Clean {
		t.Fatalf("pingpong lint: status %d clean=%v diags=%+v",
			resp.StatusCode, lr.Clean, lr.Diagnostics)
	}
	if lr.Diagnostics == nil {
		t.Fatal("clean response must carry [] diagnostics, not null")
	}

	for _, bad := range []string{`{"model": `, `{"model": "system ("}`} {
		if resp, _ := post(bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("lint of %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	if s.linted.Load() == 0 {
		t.Fatal("lint counter never incremented")
	}
}

// TestSubmitAttachesLint: every accepted job is auto-linted at
// submission, and the findings ride along on the job view — advisory
// only, so the defective model still verifies to completion.
func TestSubmitAttachesLint(t *testing.T) {
	_, ts := newTestServer(t, Config{Tick: 10 * time.Millisecond})
	v, status := submit(t, ts, JobRequest{Model: defective})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	hasBIP001 := func(diags []bip.Diagnostic) bool {
		for _, d := range diags {
			if d.Code == "BIP001" {
				return true
			}
		}
		return false
	}
	if !hasBIP001(v.Lint) {
		t.Fatalf("fresh job view missing lint findings: %+v", v.Lint)
	}
	fin := waitTerminal(t, ts, v.ID, 10*time.Second)
	if fin.State != StateDone {
		t.Fatalf("lint warnings must not block the job: ended %s (%s)", fin.State, fin.Error)
	}
	if !hasBIP001(fin.Lint) {
		t.Fatalf("terminal job view lost lint findings: %+v", fin.Lint)
	}
}

// TestHealthzAndMetrics: the operational endpoints answer, and metrics
// reflect the counters the other tests rely on.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	v, _ := submit(t, ts, JobRequest{Model: pingpong})
	waitTerminal(t, ts, v.ID, 10*time.Second)
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{"bipd_jobs_total 1", "bipd_jobs_done 1", "bipd_cache_misses 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}
