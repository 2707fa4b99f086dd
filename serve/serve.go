// Package serve implements bipd, the BIP verification service: an
// HTTP/JSON front-end over the public bip API. Clients POST textual
// models and properties to /v1/jobs; the server parses and validates
// the submission synchronously (malformed input is a 400, never a
// job), runs accepted jobs on a bounded worker pool with per-job
// deadlines, and exposes the lifecycle —
//
//	POST   /v1/jobs            submit (202, or 200 on a cache hit)
//	GET    /v1/jobs/{id}       poll state, progress, report
//	DELETE /v1/jobs/{id}       cancel (queued or running)
//	GET    /v1/jobs/{id}/events  SSE progress stream + terminal event
//	GET    /healthz            liveness + fault counters
//	GET    /metrics            plain-text counters
//
// Completed reports are cached by a content address of the submission
// (see fingerprint): resubmitting the same model, properties, and
// semantics-relevant options is answered without an exploration. The
// package is intentionally engine-free — everything it knows about
// verification it learns from the bip surface, so it exercises exactly
// the API an external client would.
//
// The service is built to survive its failure modes (store.go holds the
// persistence design):
//
//   - CRASHES: with Config.DataDir set, accepted jobs are journaled
//     before they are acknowledged and completed reports are persisted
//     under their fingerprint. A restart on the same directory replays
//     the journal, re-queues whatever was queued or running at the
//     crash (re-execution is idempotent — same fingerprint, same
//     report), and serves already-completed work from the store.
//   - ENGINE PANICS: each job runs behind a recover barrier; a panic
//     fails that job (stack attached to its error) and the worker
//     lives on. /healthz and /metrics count the recoveries.
//   - OVERLOAD: a full queue and exhausted per-client quotas
//     (Config.Quota) answer 429 with a Retry-After hint that
//     serve/client's backoff honors.
//   - DISK FAULTS: a persistence write error mid-run degrades the
//     service to in-memory mode — logged and counted, never a failed
//     job.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bip"
	"bip/internal/faultfs"
	"bip/lint"
	"bip/prop"
)

// Config sizes the service. Zero values pick the defaults.
type Config struct {
	// Pool is the number of concurrent explorations (default 2).
	Pool int
	// Queue bounds jobs accepted beyond the running ones; a full queue
	// rejects submissions with 429 (default 16).
	Queue int
	// CacheSize bounds the completed-report LRU (default 64).
	CacheSize int
	// Tick is the progress interval: how often running jobs refresh
	// their stats and stream SSE events (default 100ms). Cancellation
	// does not wait for it: the engine checks a job's context once per
	// expansion.
	Tick time.Duration
	// DefaultTimeout bounds each job's wall clock when the submission
	// does not set timeout_ms (default 1 minute; <0 disables).
	DefaultTimeout time.Duration
	// DataDir, when non-empty, roots crash-safe persistence: the job
	// journal and the content-addressed report store (see store.go).
	// Empty keeps the service purely in-memory.
	DataDir string
	// Quota, when enabled, rate-limits submissions per client with a
	// token bucket (see QuotaConfig).
	Quota QuotaConfig
}

func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = 2
	}
	if c.Queue <= 0 {
		c.Queue = 16
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.Tick <= 0 {
		c.Tick = 100 * time.Millisecond
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = time.Minute
	}
	if c.DefaultTimeout < 0 {
		c.DefaultTimeout = 0
	}
	return c
}

// Server is the verification service. Create with New, mount Handler
// on an http.Server, and Shutdown to drain.
type Server struct {
	cfg     Config
	reports *reports
	store   *store      // nil without DataDir
	quotas  *quotaTable // nil without Quota
	// verify substitutes the engine entry point in tests (panic
	// isolation); nil means bip.Verify.
	verify func(sys *bip.System, opts ...bip.Option) (*bip.Report, error)

	mu     sync.Mutex
	closed bool
	jobs   map[string]*job
	queue  chan *job
	wg     sync.WaitGroup

	// crashing makes workers drain the queue without running jobs — the
	// Crash() harness hook (see below).
	crashing atomic.Bool

	nextID          atomic.Int64
	running         atomic.Int64
	queued          atomic.Int64
	total           atomic.Int64
	done            atomic.Int64
	failed          atomic.Int64
	canceled        atomic.Int64
	linted          atomic.Int64
	recoveredPanics atomic.Int64
	jobsRecovered   atomic.Int64
	quotaRejected   atomic.Int64
}

// New starts a Server — recovering journaled state first when
// Config.DataDir is set — and returns it with the worker pool running.
// It fails only on an unusable data directory: once the service is up,
// persistence faults degrade it instead (see store.go).
func New(cfg Config) (*Server, error) { return newServer(cfg, faultfs.OS) }

// newServer is New with the filesystem injectable, the seam the
// degradation tests use to fault journal and report writes.
func newServer(cfg Config, fs faultfs.FS) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, jobs: make(map[string]*job)}
	if cfg.Quota.enabled() {
		s.quotas = newQuotaTable(cfg.Quota)
	}
	var pending []journalRec
	if cfg.DataDir != "" {
		var maxID int64
		var err error
		if s.store, pending, maxID, err = openStore(cfg.DataDir, fs); err != nil {
			return nil, err
		}
		s.nextID.Store(maxID)
	}
	s.reports = newReports(cfg.CacheSize, s.store)
	var requeue []*job
	var keep []journalRec
	for _, rec := range pending {
		p, err := s.prepare(*rec.Req)
		if err != nil {
			// Only a hand-edited journal can get here: the record was
			// validated before it was written.
			s.store.logf("bipd: dropping unreplayable journal entry %s: %v", rec.ID, err)
			continue
		}
		jb := newJob(rec.ID, p, s.verify)
		jb.recovered = true
		s.jobs[jb.id] = jb
		s.total.Add(1)
		s.jobsRecovered.Add(1)
		if rep, ok := s.reports.get(p.fp); ok {
			// The crash hit between the report write and the journal's
			// terminal record. The fingerprint proves the stored report
			// answers this exact submission, so the job ends without a
			// re-run; compaction drops its submit record, so it needs no
			// terminal one.
			s.finish(jb, StateQueued, outcome{state: StateDone, report: rep, cached: true})
			continue
		}
		jb.journaled = true
		requeue = append(requeue, jb)
		keep = append(keep, rec)
	}
	// Compact before the pool starts: the journal shrinks to the
	// still-pending submissions and reopens for appending.
	if s.store != nil {
		if err := s.store.compact(keep); err != nil {
			return nil, err
		}
	}
	// Recovered jobs ride along in queue capacity: recovery must never
	// be rejected by the very overload protection it predates.
	s.queue = make(chan *job, cfg.Queue+len(requeue))
	for _, jb := range requeue {
		s.queue <- jb
		s.queued.Add(1)
	}
	for i := 0; i < cfg.Pool; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// worker runs queued jobs; a job that turned terminal while queued is
// dropped unrun.
func (s *Server) worker() {
	defer s.wg.Done()
	for jb := range s.queue {
		s.queued.Add(-1)
		if s.crashing.Load() {
			// Crash(): drain without running, like a killed process.
			continue
		}
		s.running.Add(1)
		if o, ran := jb.run(s.cfg.Tick); ran {
			s.finish(jb, StateRunning, o)
		}
		s.running.Add(-1)
	}
}

// finish is every terminal transition of a job: a run's outcome (from
// StateRunning), and a cancellation before start, a cached answer or a
// recovered job whose report is stored (from StateQueued). Only the
// transition that wins the job's state moves it, so each step below
// happens once per job: the job turns terminal and drops its run
// inputs, its counter moves, a report it computed is stored, and, if
// it has a submit record, its terminal record is journaled. The report
// goes first, so the journal never promises a report the store lacks.
// The job is visible as terminal before either write: no fsync delays
// a verdict.
func (s *Server) finish(jb *job, from string, o outcome) bool {
	if !jb.settle(from, o) {
		return false
	}
	switch o.state {
	case StateDone:
		s.done.Add(1)
	case StateFailed:
		s.failed.Add(1)
	case StateCanceled:
		s.canceled.Add(1)
	}
	if o.panicked {
		s.recoveredPanics.Add(1)
	}
	if o.state == StateDone && !o.cached {
		s.reports.put(jb.fp, o.report)
	}
	if jb.journaled {
		s.store.appendTerminal(o.state, jb.id, o.errMsg)
	}
	return true
}

// cancel ends a queued job on the spot, its terminal record durable
// before cancel returns; a running job has its context canceled, and
// its worker finishes it once the engine notices, within one expansion.
func (s *Server) cancel(jb *job) {
	if s.finish(jb, StateQueued, outcome{state: StateCanceled, errMsg: "canceled before start"}) {
		return
	}
	jb.mu.Lock()
	stop := jb.cancel
	jb.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// liveJobs snapshots the job table.
func (s *Server) liveJobs() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, jb := range s.jobs {
		jobs = append(jobs, jb)
	}
	return jobs
}

// Shutdown drains the service: new submissions are rejected with 503,
// queued and running jobs run to completion. If ctx expires first,
// every live job is canceled and Shutdown waits for the (now prompt)
// drain before returning ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		for _, jb := range s.liveJobs() {
			s.cancel(jb)
		}
		<-drained
		return ctx.Err()
	}
}

// Crash simulates kill -9 for recovery tests and the E23 harness: all
// persistence writes stop immediately (no terminal records, exactly
// what a killed process leaves behind), running jobs are canceled, and
// queued jobs are discarded unrun. The journal on disk is left exactly
// as the "crash" found it; a New on the same DataDir exercises the real
// recovery path. The in-process Server is dead afterwards — submissions
// are rejected — and must be discarded.
func (s *Server) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.crashing.Store(true)
	if s.store != nil {
		s.store.goSilent()
	}
	close(s.queue)
	s.mu.Unlock()
	for _, jb := range s.liveJobs() {
		s.cancel(jb)
	}
	s.wg.Wait()
}

// CacheStats exposes the report store's counters for tests and
// harnesses: hits in either tier, misses, and reports held in memory.
func (s *Server) CacheStats() (hits, misses int64, size int) {
	return s.reports.stats()
}

// Recovered exposes the journal-recovery counter for tests and
// harnesses: jobs re-queued or served from the store after a restart.
func (s *Server) Recovered() int64 { return s.jobsRecovered.Load() }

// Degraded reports whether a persistence fault has flipped the service
// into in-memory mode.
func (s *Server) Degraded() bool { return s.store != nil && s.store.isDegraded() }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/lint", s.handleLint)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBytes bounds a submission body; models are text, a megabyte
// is generous.
const maxRequestBytes = 1 << 20

// LintRequest is the POST /v1/lint body: just a textual model.
type LintRequest struct {
	Model string `json:"model"`
}

// LintResponse is the POST /v1/lint answer. Clean means no diagnostic
// of warning severity or above — informational findings (reduction
// explainability, named constants) do not dirty a model.
type LintResponse struct {
	Diagnostics []bip.Diagnostic `json:"diagnostics"`
	Clean       bool             `json:"clean"`
}

// handleLint runs static analysis only: no job, no queue slot, no
// exploration — the cheap admission filter clients can call before
// submitting an expensive verification.
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	var req LintRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	sys, err := bip.Parse(req.Model)
	if err != nil {
		writeError(w, http.StatusBadRequest, "model: %v", err)
		return
	}
	diags, err := bip.Lint(sys)
	if err != nil {
		writeError(w, http.StatusBadRequest, "lint: %v", err)
		return
	}
	s.linted.Add(1)
	if diags == nil {
		diags = []bip.Diagnostic{}
	}
	writeJSON(w, http.StatusOK, LintResponse{Diagnostics: diags, Clean: !lint.HasWarnings(diags)})
}

// prepared is a validated submission lowered to job ingredients. The
// same path serves fresh submissions and journal recovery, so a record
// that was accepted once replays identically.
type prepared struct {
	sys     *bip.System
	opts    []bip.Option
	timeout time.Duration
	fp      string
	lint    []bip.Diagnostic
}

// prepare validates a request up front — a malformed model or property
// is the client's error and never becomes a job — and computes its
// fingerprint and auto-lint findings.
func (s *Server) prepare(req JobRequest) (prepared, error) {
	var p prepared
	sys, err := bip.Parse(req.Model)
	if err != nil {
		return p, fmt.Errorf("model: %v", err)
	}
	props := make([]prop.Prop, 0, len(req.Properties))
	for i, src := range req.Properties {
		pr, err := bip.ParseProp(src)
		if err != nil {
			return p, fmt.Errorf("property %d: %v", i, err)
		}
		props = append(props, pr)
	}
	opts, err := req.Options.Options()
	if err != nil {
		return p, fmt.Errorf("options: %v", err)
	}
	for _, pr := range props {
		opts = append(opts, bip.Prop(pr))
	}
	p.sys, p.opts = sys, opts
	p.timeout = s.cfg.DefaultTimeout
	if req.Options.TimeoutMS > 0 {
		p.timeout = time.Duration(req.Options.TimeoutMS) * time.Millisecond
	}
	p.fp = fingerprint(req.Model, props, req.Options)
	// Auto-lint every accepted submission: the diagnostics ride the job
	// view (cache hits included) so clients see model defects alongside
	// the verdict without a second request. Advisory only — warnings
	// never block a job.
	if diags, lerr := bip.Lint(sys); lerr == nil {
		p.lint = diags
	}
	return p, nil
}

// retrySeconds renders a wait as a Retry-After value: whole seconds,
// clamped to [1, 60] so a client never spins and never stalls for
// minutes on a hint.
func retrySeconds(wait time.Duration) int {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// queueRetryAfter estimates when a queue slot frees from pool depth:
// pending work divided by the workers draining it, floored at a second.
// A heuristic, not a promise — but it scales the client's backoff with
// the actual backlog instead of a blind constant.
func (s *Server) queueRetryAfter() int {
	backlog := s.queued.Load() + s.running.Load()
	return retrySeconds(time.Duration(backlog/int64(s.cfg.Pool)+1) * time.Second)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.quotas != nil {
		if ok, wait := s.quotas.admit(quotaKey(r), time.Now()); !ok {
			s.quotaRejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(wait)))
			writeError(w, http.StatusTooManyRequests, "quota exceeded")
			return
		}
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	p, err := s.prepare(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := "j" + strconv.FormatInt(s.nextID.Add(1), 10)
	jb := newJob(id, p, s.verify)
	rep, hit := s.reports.get(p.fp)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	if hit {
		s.jobs[id] = jb
		s.mu.Unlock()
		s.total.Add(1)
		// Answered without an exploration and never journaled: a restart
		// answers a resubmission from the report store again.
		s.finish(jb, StateQueued, outcome{state: StateDone, report: rep, cached: true})
		writeJSON(w, http.StatusOK, jb.view())
		return
	}
	// Every send happens under s.mu, so len==cap is a reliable full
	// check and the send below cannot block. Checking before journaling
	// keeps rejected submissions out of the journal entirely.
	if len(s.queue) == cap(s.queue) {
		retry := s.queueRetryAfter()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, "queue full (%d pending)", s.cfg.Queue)
		return
	}
	// Journal before acknowledging: once the client sees 202, a crash
	// cannot lose the job. The fsync cost rides the submission path by
	// design — accepting faster than surviving would be lying.
	if s.store != nil {
		s.store.appendSubmit(id, p.fp, req)
		jb.journaled = true
	}
	s.jobs[id] = jb
	// The 202 carries the job as accepted: once it is on the queue, a
	// worker may finish a small job before the response is written.
	accepted := jb.view()
	s.queue <- jb
	s.mu.Unlock()
	s.queued.Add(1)
	s.total.Add(1)
	writeJSON(w, http.StatusAccepted, accepted)
}

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	jb, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	return jb, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jb.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	s.cancel(jb)
	writeJSON(w, http.StatusOK, jb.view())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	ch := make(chan Event, 8)
	jb.subscribe(ch)
	// The deferred unsubscribe is the whole leak story: whether the
	// stream ends at the terminal event or the client vanishes
	// mid-stream (r.Context() fires), the subscriber channel leaves the
	// job's fan-out set and this handler goroutine returns with it.
	defer jb.unsubscribe(ch)
	writeSSE(w, "snapshot", Event{State: jb.view().State})
	fl.Flush()
	for {
		select {
		case ev := <-ch:
			writeSSE(w, "progress", ev)
			fl.Flush()
		case <-jb.done:
			// Drain progress already queued so the terminal event is last.
			for {
				select {
				case ev := <-ch:
					writeSSE(w, "progress", ev)
				default:
					writeSSE(w, "done", jb.terminalEvent())
					fl.Flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, event string, v any) {
	data, _ := json.Marshal(v)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// healthResponse is the GET /healthz body. Status "degraded" means the
// service is up but a persistence fault has flipped it to in-memory
// mode; everything else about it still works.
type healthResponse struct {
	Status          string `json:"status"` // "ok" | "degraded"
	Persistent      bool   `json:"persistent"`
	RecoveredPanics int64  `json:"recovered_panics"`
	JobsRecovered   int64  `json:"jobs_recovered"`
	StoreErrors     int64  `json:"store_errors"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := healthResponse{
		Status:          "ok",
		Persistent:      s.store != nil,
		RecoveredPanics: s.recoveredPanics.Load(),
		JobsRecovered:   s.jobsRecovered.Load(),
	}
	if s.store != nil {
		h.StoreErrors = s.store.errors.Load()
		if s.store.isDegraded() {
			h.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses, size := s.reports.stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "bipd_jobs_total %d\n", s.total.Load())
	fmt.Fprintf(w, "bipd_jobs_queued %d\n", s.queued.Load())
	fmt.Fprintf(w, "bipd_jobs_running %d\n", s.running.Load())
	fmt.Fprintf(w, "bipd_jobs_done %d\n", s.done.Load())
	fmt.Fprintf(w, "bipd_jobs_failed %d\n", s.failed.Load())
	fmt.Fprintf(w, "bipd_jobs_canceled %d\n", s.canceled.Load())
	fmt.Fprintf(w, "bipd_cache_hits %d\n", hits)
	fmt.Fprintf(w, "bipd_cache_misses %d\n", misses)
	fmt.Fprintf(w, "bipd_cache_size %d\n", size)
	fmt.Fprintf(w, "bipd_lint_requests %d\n", s.linted.Load())
	fmt.Fprintf(w, "bipd_recovered_panics %d\n", s.recoveredPanics.Load())
	fmt.Fprintf(w, "bipd_jobs_recovered %d\n", s.jobsRecovered.Load())
	fmt.Fprintf(w, "bipd_quota_rejections %d\n", s.quotaRejected.Load())
	var storeErrs, degraded int64
	if s.store != nil {
		storeErrs = s.store.errors.Load()
		if s.store.isDegraded() {
			degraded = 1
		}
	}
	fmt.Fprintf(w, "bipd_store_errors %d\n", storeErrs)
	fmt.Fprintf(w, "bipd_persistence_degraded %d\n", degraded)
}
