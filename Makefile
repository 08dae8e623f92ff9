GO ?= go

.PHONY: build test vet lint lint-hot race verify ci bench bench-des bench-obs test-obs test-health api apicheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the project-invariant analyzers (cmd/dcnrlint): the
# per-package checks (simdeterminism, obsnilsafe, errchecklite)
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

# test-obs race-tests the telemetry package, every instrumented hot
# path, and the faults driver that wires a run's sinks: lock-free metric
# updates and concurrent trace emission must stay clean under the race
# detector.
test-obs:
	$(GO) test -race ./internal/obs/ ./internal/obs/health/ ./internal/obs/journal/ ./internal/obs/timeline/ ./internal/des/ ./internal/remediation/ ./internal/faults/ ./internal/sev/ ./internal/core/

# test-health race-tests the streaming SLO engine and its end-to-end
# wiring: the engine package itself plus the facade scenarios (elevated
# burn drill, calibrated quiet run, report format).
test-health:
	$(GO) test -race ./internal/obs/health/
	$(GO) test -race -run 'TestHealth|TestSLO' .

# verify is the tier-1 gate: vet, the static-analysis suite (including
# the hotalloc escape gate), and the race-enabled test suite (which
# includes the obs package and all instrumented packages).
verify: vet lint lint-hot apicheck race test-obs

# ci is the ordered gate for continuous integration, fail-fast:
# build -> vet -> lint -> lint-hot -> apicheck -> race -> test-obs ->
# test-health -> fuzz-smoke.
ci:
	./scripts/ci.sh

bench:
	$(GO) test -run '^$$' -bench . -benchtime 200ms .

# bench-des and bench-obs run scripts/bench.sh, which records what only a
# script can measure in BENCH_des.json and BENCH_obs.json (one JSON shape)
# and fails on a missed gate. bench-des: the DES kernel loop at >= 5x the
# recorded pre-pooling baseline and 0 allocs/op. bench-obs: paired-median
# dcsim overheads of metrics, timeline, journal and health engine < 5%,
# full tracing < 15%, plus the obs and health micro-benchmarks. Pipeline
# throughput and latency are cmd/dcnrbench's job.
bench-des:
	./scripts/bench.sh des

bench-obs:
	./scripts/bench.sh obs
