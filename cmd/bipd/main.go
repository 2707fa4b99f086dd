// Command bipd serves BIP verification over HTTP/JSON: POST a textual
// model plus textual properties to /v1/jobs, poll or stream the job,
// read the report. Built entirely on the public bip/serve package; see
// its doc for the API.
//
// Usage:
//
//	bipd -addr :8080 -pool 4
//
//	curl -s localhost:8080/v1/jobs -d '{
//	    "model": "system pair\natom A { ... }",
//	    "properties": ["always(l.n <= 10)"],
//	    "options": {"workers": 4, "timeout_ms": 30000}
//	}'
//	curl -s localhost:8080/v1/jobs/j1
//	curl -N localhost:8080/v1/jobs/j1/events
//	curl -s -X DELETE localhost:8080/v1/jobs/j1
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503, accepted
// jobs run to completion (bounded by -drain, after which they are
// canceled).
//
// With -data DIR the service is crash-safe: accepted jobs are
// journaled before they are acknowledged and completed reports persist
// on disk, so a restart on the same directory re-queues interrupted
// jobs and serves finished ones from the store (kill -9 included —
// scripts/bipd_smoke.sh exercises exactly that). -quota-rate and
// -quota-burst cap per-client submissions with a token bucket; clients
// get 429 + Retry-After, which the bip/serve/client package honors
// automatically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bip/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pool := flag.Int("pool", 2, "concurrent explorations")
	queue := flag.Int("queue", 16, "jobs accepted beyond the running ones (full queue rejects with 429)")
	cache := flag.Int("cache", 64, "completed reports kept in the content-addressed cache")
	tick := flag.Duration("tick", 100*time.Millisecond, "progress interval (stats refresh, SSE events); cancellation is checked once per expansion")
	timeout := flag.Duration("timeout", time.Minute, "default per-job wall clock (overridable per job via timeout_ms; <0 disables)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace: running jobs beyond this are canceled")
	data := flag.String("data", "", "data directory for crash-safe persistence (journal + report store); empty runs in-memory")
	quotaRate := flag.Float64("quota-rate", 0, "per-client sustained submissions/sec (0 disables quotas)")
	quotaBurst := flag.Int("quota-burst", 0, "per-client submission burst size (0 disables quotas)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: bipd [-addr host:port] [-pool n] [-queue n] [-cache n] [-tick d] [-timeout d] [-drain d] [-data dir] [-quota-rate r -quota-burst n]")
		os.Exit(2)
	}
	cfg := serve.Config{
		Pool:           *pool,
		Queue:          *queue,
		CacheSize:      *cache,
		Tick:           *tick,
		DefaultTimeout: *timeout,
		DataDir:        *data,
		Quota:          serve.QuotaConfig{Rate: *quotaRate, Burst: *quotaBurst},
	}
	if err := run(*addr, cfg, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "bipd:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config, drain time.Duration) error {
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	persist := "in-memory"
	if cfg.DataDir != "" {
		persist = "data " + cfg.DataDir
	}
	fmt.Fprintf(os.Stderr, "bipd: listening on %s (pool %d, queue %d, %s)\n", addr, cfg.Pool, cfg.Queue, persist)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "bipd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "bipd: drain expired, canceled remaining jobs")
	}
	// The job drain already happened; closing idle HTTP connections is
	// quick, so give it its own short deadline rather than the possibly
	// exhausted drain budget.
	closeCtx, cancelClose := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelClose()
	return hs.Shutdown(closeCtx)
}
