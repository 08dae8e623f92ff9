#!/bin/sh
# The CI gate, fail-fast and in dependency order: cheap structural checks
# before expensive dynamic ones.
#
#   1. build       - everything compiles
#   2. vet         - stock go vet
#   3. lint        - cmd/dcnrlint project invariants (per-package +
#                    inter-procedural simtaint/lockflow, with per-analyzer
#                    timings) + gofmt cleanliness
#   4. lint-hot    - compiler-backed hotalloc gate: //hot:noalloc regions
#                    must be free of heap escapes per `go build -m`
#   5. apicheck    - exported facade API matches the reviewed api.txt
#   6. race        - full test suite under the race detector
#   7. test-obs    - focused race pass over telemetry + instrumented paths
#   8. test-health - focused race pass over the SLO engine and its wiring;
#                    on failure an elevated-run SLO report is dumped to
#                    health_slo_failure.json for triage
#   9. fuzz-smoke  - 10s of native fuzzing per wire-format target: the
#                    ticket parser (alone and against its reference), the
#                    notify line framing, the device-name codec
#                    (ParseDeviceName and MakeName against their
#                    fmt/ToLower references), the SEV dataset loaders
#                    (Store.ReadJSON against DecodeDataset + AddAll), and
#                    dcnrd's query normalizer (parseParams round trip)
#
# Former bench smoke steps and where their gates live now, all machine-
# independent and all run by `race` (the first also by `test-obs`):
#
#   - DES steady state at 0 allocs/op, plain and instrumented:
#     TestScheduleAndRunSteadyStateAllocs (internal/des)
#   - query daemon serving the paper-weighted mix (every response 200,
#     nonzero qps, cache hit rate > 0.5, p99 < 5s, hit body = miss body):
#     TestDaemonServesHotMix (cmd/dcnrd)
#
# Timing gates are not CI steps: scripts/bench.sh des|obs records and
# gates them on demand (make bench-des, make bench-obs).
#
# Steps 3-6 are the layered defense for the PR-2 race class: heaplock
# flags unlocked DES-heap scheduling syntactically, lockflow proves the
# inter-procedural variant (mutations hidden behind helpers reachable from
# unlocked entry points), and the remediation concurrency tests catch it
# dynamically under -race.
#
# Usage: scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

step() {
	echo "==> ci: $1"
	shift
	"$@"
}

step build make build
step vet make vet
step lint make lint
step lint-hot make lint-hot
step apicheck make apicheck
step race make race
step test-obs make test-obs

# The health gate dumps a full /slo-shaped report from an elevated run on
# failure, so a broken alert pipeline leaves its state behind as an
# artifact instead of only a test log.
echo "==> ci: test-health"
if ! make test-health; then
	echo "==> ci: test-health failed; dumping elevated-run SLO report" >&2
	go run ./cmd/dcsim -seed 7 -elevate-year 2014 -elevate-factor 5 \
		-out "$(mktemp -d)" -health-out health_slo_failure.json >&2 || true
	echo "==> ci: SLO report at health_slo_failure.json" >&2
	exit 1
fi

fuzz_smoke() {
	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/tickets
	go test -run '^$' -fuzz '^FuzzParseMatchesReference$' -fuzztime 10s ./internal/tickets
	go test -run '^$' -fuzz '^FuzzFraming$' -fuzztime 10s ./internal/notify
	go test -run '^$' -fuzz '^FuzzParseDeviceName$' -fuzztime 10s ./internal/topology
	go test -run '^$' -fuzz '^FuzzMakeName$' -fuzztime 10s ./internal/topology
	go test -run '^$' -fuzz '^FuzzReadJSON$' -fuzztime 10s ./internal/sev
	go test -run '^$' -fuzz '^FuzzParseParams$' -fuzztime 10s ./internal/serve
}
step fuzz-smoke fuzz_smoke

echo "==> ci: all gates passed"
