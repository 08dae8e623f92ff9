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
#                    ticket formatter's %.4f fast path (against its fmt
#                    reference, over raw float64 bits), the device-name
#                    codec (ParseDeviceName and MakeName against their
#                    fmt/ToLower references), the SEV dataset loaders
#                    (Store.ReadJSON against DecodeDataset + AddAll, and
#                    ID lookups against the loaded reports), the SEV
#                    store's operation sequences (Add, AddAll, Grow,
#                    ReadJSON, SetProvenance against a slice-and-map
#                    model), the fault
#                    cursor's radix sort (against slices.SortFunc over
#                    arbitrary non-negative finite starts), the
#                    SEV query index (every result method against the
#                    brute-force Query.matches scan, over Add and AddAll
#                    scripts), dcnrd's query normalizer (parseParams
#                    round trip, and Answer against the daemon's mux),
#                    dcnrd's POST /ingest body (rejected with Len and
#                    Generation unchanged, or accepted with both advanced
#                    consistently), the journal reader (ReadJSONL's
#                    write-back keeps every name and reads back to itself),
#                    and dcnrtop's /campaign decode and series derivation
#                    (over arbitrary bodies, every series has the asked
#                    point count, the cumulative ones never fall and
#                    running is never negative)
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
# Steps 3-6 are the layered defense for the PR-2 race class: lockflow
# proves statically that no unlocked entry point (exported method, method
# value, uncalled helper) reaches a DES-heap mutation, including through
# helpers, and the remediation concurrency tests catch it dynamically
# under -race.
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
	go test -run '^$' -fuzz '^FuzzFormatMatchesReference$' -fuzztime 10s ./internal/tickets
	go test -run '^$' -fuzz '^FuzzParseDeviceName$' -fuzztime 10s ./internal/topology
	go test -run '^$' -fuzz '^FuzzMakeName$' -fuzztime 10s ./internal/topology
	go test -run '^$' -fuzz '^FuzzReadJSON$' -fuzztime 10s ./internal/sev
	go test -run '^$' -fuzz '^FuzzQueryMatchesScan$' -fuzztime 10s ./internal/sev
	go test -run '^$' -fuzz '^FuzzStoreOps$' -fuzztime 10s ./internal/sev
	go test -run '^$' -fuzz '^FuzzFaultOrder$' -fuzztime 10s ./internal/faults
	go test -run '^$' -fuzz '^FuzzParseParams$' -fuzztime 10s ./internal/serve
	go test -run '^$' -fuzz '^FuzzIngest$' -fuzztime 10s ./internal/serve
	go test -run '^$' -fuzz '^FuzzReadJournal$' -fuzztime 10s ./internal/obs/journal
	go test -run '^$' -fuzz '^FuzzCampaignSeries$' -fuzztime 10s ./cmd/dcnrtop
}
step fuzz-smoke fuzz_smoke

echo "==> ci: all gates passed"
