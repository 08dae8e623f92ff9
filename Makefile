GO ?= go

.PHONY: build test vet lint lint-hot race verify ci bench bench-des bench-sevquery bench-obs bench-health bench-sweep bench-serve test-obs test-health api apicheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the project-invariant analyzers (cmd/dcnrlint): the
# per-package checks (simdeterminism, heaplock, obsnilsafe, errchecklite)
# plus the inter-procedural module checks (simtaint, lockflow), with
# per-analyzer wall timings on stderr, and fails on any unformatted file.
lint:
	$(GO) run ./cmd/dcnrlint -time ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

# lint-hot additionally runs the compiler-backed hotalloc gate: every
# //hot:noalloc region (DES scheduler, the obs.Lane ring and its span,
# journal and timeline wrappers, tickets.Parse) must be free of
# compiler-reported heap escapes. Split from lint because it shells out
# to one `go build -gcflags=<module>/...=-m ./...` over the whole module.
lint-hot:
	$(GO) run ./cmd/dcnrlint -time -hot ./...

# api regenerates the exported-API golden file after an intentional
# surface change; apicheck fails when the facade's exported API drifts
# from the reviewed api.txt.
api:
	$(GO) run ./cmd/apidump > api.txt

apicheck:
	@$(GO) run ./cmd/apidump | diff -u api.txt - \
		|| { echo "exported API drifted from api.txt; review and run 'make api'"; exit 1; }

# race runs the full suite under the race detector — the new SEV store
# indexes must stay consistent under concurrent Add + Query.
race:
	$(GO) test -race ./...

# test-obs race-tests the telemetry package and every instrumented hot
# path: lock-free metric updates and concurrent trace emission must stay
# clean under the race detector.
test-obs:
	$(GO) test -race ./internal/obs/ ./internal/obs/health/ ./internal/obs/journal/ ./internal/obs/timeline/ ./internal/des/ ./internal/remediation/ ./internal/monitor/ ./internal/sev/ ./internal/core/

# test-health race-tests the streaming SLO engine and its end-to-end
# wiring: the engine package itself plus the facade scenarios (elevated
# burn drill, calibrated quiet run, backbone edge signal, report format).
test-health:
	$(GO) test -race ./internal/obs/health/ ./internal/notify/
	$(GO) test -race -run 'TestHealth|TestSLO|TestBackboneHealth' .

# verify is the tier-1 gate: vet, the static-analysis suite (including
# the hotalloc escape gate), and the race-enabled test suite (which
# includes the obs package and all instrumented packages).
verify: vet lint lint-hot apicheck race test-obs

# ci is the ordered gate for continuous integration:
# build -> vet -> lint -> apicheck -> race -> test-obs, fail-fast.
ci:
	./scripts/ci.sh

bench:
	$(GO) test -run '^$$' -bench . -benchtime 200ms .

# bench-des measures the DES kernel hot path (schedule 10k events and
# drain, plain and instrumented) into BENCH_des.json. It fails if the
# instrumented loop falls below 5x faster than the recorded pre-pooling
# baseline or if either loop allocates in steady state.
bench-des:
	./scripts/bench_des.sh

# bench-sevquery snapshots the per-figure and query-engine benchmarks into
# BENCH_sevquery.json so speedups/regressions are diffable across PRs.
bench-sevquery:
	./scripts/bench_sevquery.sh

# bench-obs measures the telemetry subsystem: obs micro-benchmarks plus
# instrumented-vs-uninstrumented end-to-end dcsim and repro runs, recorded
# in BENCH_obs.json. Hard gates: metrics-only end-to-end overhead < 5%,
# full tracing < 15%.
bench-obs:
	./scripts/bench_obs.sh

# bench-health measures the SLO/health engine: micro-benchmarks plus
# end-to-end dcsim runs with and without -health-out (and with structured
# logging), recorded in BENCH_health.json. The engine overhead must stay
# under 5%.
bench-health:
	./scripts/bench_health.sh

# bench-sweep measures the campaign engine: a 16-run seed sweep at scale 1
# on 8 workers vs 1 worker, recorded in BENCH_sweep.json along with the
# machine's CPU count. It also hard-verifies determinism: the parallel and
# serial reports (and a repeated parallel run) must be byte-identical.
bench-sweep:
	./scripts/bench_sweep.sh

# bench-serve measures the query daemon: dcnrload self-hosts a dcnrd
# store and replays the paper-figure query mix at a rising concurrency
# ladder, recording qps/p50/p99/cache-hit-rate per step in
# BENCH_serve.json. Gates only on machine-independent invariants
# (error-free steps, nonzero qps, cache hits on the repeated mix).
bench-serve:
	./scripts/bench_serve.sh
