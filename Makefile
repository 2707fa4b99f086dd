# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# targets. `make verify` is the tier-1 gate.

GO ?= go

.PHONY: all fmt vet build test race stress fuzz bench bench-par verify apicheck examples bipd-smoke lint-models

all: verify

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -timeout turns a hang into a failure with a goroutine dump per
# package. The race detector slows the root package's exploration-heavy
# gates several-fold (about two minutes on 2 CPUs), so race gets more.
test:
	$(GO) test -timeout 120s ./...

# race pins the concurrent subsystems' data-sharing discipline: the
# multi-threaded coordinator and the distributed protocol deliberately
# share components' variable stores (their value slices) with offers
# across goroutines/rounds (internal/engine/race_test.go,
# internal/distributed/nodes_share_test.go), the work-stealing explorer
# shares copy-on-write states and derived move tables across workers
# (internal/lts/wsteal_test.go), and the bipd service fans progress
# callbacks and job state across HTTP handlers, SSE subscribers and the
# worker pool (serve/serve_test.go), so ./... must stay clean under the
# race detector.
race:
	$(GO) test -race -timeout 300s ./...

# stress repeats the exploration loop's tests under the race detector
# at GOMAXPROCS 1, 2, 4 and 8, so the 4- and 8-worker runs oversubscribe
# the cores and every stop/termination path meets many schedules: the
# work-stealing differential, spill, early-exit and goroutine-leak
# tests, plus the deterministic-route tests (worker defaults, the golden
# stream, cancellation, progress), which run the same admission, flush
# and termination protocol on the one-worker FIFO frontier, plus the
# deadlock and compact-set counterexample tests, whose paths are read
# from the BFS tree that every worker's flush writes, plus the observer
# checker's tests, whose one propagation takes whatever order the
# workers' flushes interleave, late cross edges included. Each pass then
# repeats the observer counterexample oracle at GOMAXPROCS 1, 2 and 4
# (its product paths and verdicts come off that shared tree and the
# unordered stream), then bipd's lifecycle tests (crash recovery, cancellation,
# shutdown, degradation, panic isolation) at GOMAXPROCS 1, 2 and 4: a
# job's terminal transition races between HTTP handlers and the worker
# pool, and exactly one of them may win it. It then repeats the engines'
# sharing tests at GOMAXPROCS 1, 2, 4 and 8: the multi-threaded
# coordinator writes data-transfer results into stores its components
# offered before it sends their commands, and the distributed protocol
# shares published stores across rounds. Each pass is its own test
# process under the 600 s hang timeout: one pass takes about 36 s on 2
# CPUs (21 s of it the exploration loop's tests), so a single
# -count=200 process could not finish inside any timeout that still
# catches a hang promptly.
# CI runs it with STRESS_COUNT=20.
STRESS_COUNT ?= 200
stress:
	@for i in $$(seq $(STRESS_COUNT)); do \
		echo "stress pass $$i/$(STRESS_COUNT)"; \
		$(GO) test -race -count=1 -cpu 1,2,4,8 \
			-run 'WorkSteal|Spill|EarlyExit|Leak|TestExploreWorkersDefaults|TestDeterministicStreamGolden|TestContextCancellation|TestProgressCallbackAllDrivers|Deadlock|CompactSeenVerdictsAndPaths|Automaton' \
			-timeout 600s ./internal/lts || exit 1; \
		$(GO) test -race -count=1 -cpu 1,2,4 \
			-run ObserverCounterexampleOracle \
			-timeout 600s . || exit 1; \
		$(GO) test -race -count=1 -cpu 1,2,4 \
			-run 'Crash|Recover|Cancel|Lifecycle|Shutdown|Degrade|Panic' \
			-timeout 600s ./serve || exit 1; \
		$(GO) test -race -count=1 -cpu 1,2,4,8 \
			-run 'RunMT|Deployment|OfferStores' \
			-timeout 600s ./internal/engine ./internal/distributed || exit 1; \
	done

# fuzz runs each fuzz target for FUZZTIME past its seed corpus, which
# plain `go test` already replays: the model parser (carrying every
# model that parses on through lint and a bounded, deadlined
# verification), the property parser, the static analyzer and bipd's
# journal replay and the spill file's state decoder. A failing input lands in the package's testdata/fuzz
# directory; commit it as a regression seed once the fault is mended.
# CI runs it with the default budget.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParseProp$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzLint$$' -fuzztime $(FUZZTIME) ./lint
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime $(FUZZTIME) ./serve
	$(GO) test -run '^$$' -fuzz '^FuzzStateFromBinaryKey$$' -fuzztime $(FUZZTIME) ./internal/core

# bench prints one line per paper experiment (E1–E23); full tables via
# `go run ./cmd/bipbench` (reference run recorded in EXPERIMENTS.md).
bench:
	$(GO) test -bench . -benchtime=1x -run '^$$' .

# bench-par measures parallel exploration only: the BenchmarkExplore
# workload x workers grid (sequential vs work-stealing) and the E18
# work-stealing sweep, plus the multi-core speedup gate (which skips
# with a notice on hosts with fewer than 4 CPUs). CI runs this next to
# the bench smoke.
bench-par:
	$(GO) test -bench 'Explore|E18' -benchtime=1x -run '^$$' .
	$(GO) test -run TestE18SpeedupMultiCore -count=1 -v .

# apicheck enforces the public-API boundary: tools and examples must be
# buildable by an external consumer, so nothing under cmd/ or examples/
# may import bip/internal; and the property algebra's tests must stay
# black-box (package prop_test over the public surface), so that every
# prop feature is demonstrably reachable from outside the module.
apicheck:
	@$(GO) run ./cmd/apicheck

# examples builds and runs every example as a smoke test of the public
# API surface (small sizes; each exits 0 on success), plus a bipc run
# checking textual properties end to end (parse → compile → stream),
# and the other front ends: bipsim on both engines (a built-in model
# and a .bip file) and dfinder's compositional-vs-monolithic run.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/elevator
	$(GO) run ./examples/temperature
	$(GO) run ./examples/philosophers -n 4
	$(GO) run ./examples/lustre-integrator
	$(GO) run ./cmd/bipc \
		-prop 'always(l.n <= 10)' \
		-prop 'after(hit, until(l.n >= 1, back))' \
		-prop 'never(at(l, b) & at(r, a))' \
		examples/pingpong.bip
	$(GO) run ./cmd/bipsim -model philosophers -n 3 -steps 20
	$(GO) run ./cmd/bipsim -f examples/pingpong.bip -mt -steps 20
	$(GO) run ./cmd/dfinder -model philosophers -n 3 -mono

# lint-models runs the static analyzer over every shipped model with
# warnings promoted to errors: the examples and the zoo are the
# analyzer's no-false-positives fixture, so a red lint-models means
# either a real model defect or a lint regression. (UnsafeElevator is
# deliberately absent: it drops two port bindings by design, and
# lint/lint_test.go asserts those exact findings instead.)
lint-models:
	$(GO) run ./cmd/bipc -lint -Werror examples/pingpong.bip
	@for m in philosophers philosophers2p tokenring gasstation elevator prodcons temperature; do \
		echo "dfinder -model $$m -lint"; \
		$(GO) run ./cmd/dfinder -model $$m -n 4 -m 3 -lint -Werror >/dev/null || exit 1; \
	done
	@echo "lint-models: all shipped models are warning-free"

# bipd-smoke drives the verification service over real HTTP: start
# bipd, verify examples/pingpong.bip with textual properties, assert
# the verdict, the cache hit on byte-identical resubmission, and the
# 400 on malformed input; then kill -9 a persistent (-data) server
# mid-flight and assert the restart recovers the interrupted jobs and
# keeps pre-crash reports. Needs curl + jq (present on CI runners).
bipd-smoke:
	./scripts/bipd_smoke.sh

verify: fmt vet build test apicheck
