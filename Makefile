# Development entry points. `make verify` is the tier-1 gate — CI and
# contributors run the same thing.

GO ?= go

.PHONY: verify fmt vet doc-lint build test race race-full smoke bench gobench results audit fuzz daemon perf-gate

## verify: fmt + vet + doc-lint + build + full test suite + CLI smoke
## run (tier-1 gate)
verify: fmt vet doc-lint build test smoke

## fmt: every tracked Go file is gofmt-clean
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

## doc-lint: every package documented; concurrency-sensitive packages
## must state their concurrency/aliasing contract (see cmd/doclint)
doc-lint:
	$(GO) run ./cmd/doclint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: concurrency suite under the race detector (short cycle budget)
race:
	$(GO) test -race -short ./...

## race-full: the whole suite under the race detector (CI runs this on
## a weekly schedule; expect tens of minutes)
race-full:
	$(GO) test -race ./...

## daemon: serve results over HTTP with a local persistent cache
## (catalogue, ad-hoc runs, experiment tables; see README)
daemon:
	$(GO) run ./cmd/secmemd -addr localhost:8080 -cache-dir .cache/results

## smoke: fastest end-to-end CLI exercise (static table, no simulation)
smoke:
	$(GO) run ./cmd/experiments -exp table1

## bench: the repository benchmark's traced sim-memory-bound run:
## per-layer host ns per simulated cycle, allocations per kcycle,
## shard speedup and exact model counts (see secbench/README.md)
bench:
	bash secbench/run.sh --workload sim-memory-bound --seconds 30 --trace 1

## perf-gate: same-runner A/B of this checkout against HEAD^1 on the
## benchmark's sim-memory-bound workload (10 interleaved pairs); fails
## on an incorrect run or a consistent slowdown past the base's
## spread (see scripts/bench-ab.sh)
perf-gate:
	bash scripts/bench-ab.sh

## gobench: package micro-benchmarks via go test
gobench:
	$(GO) test -bench=. -benchmem

## results: regenerate the committed results/ snapshot (see README)
results:
	$(GO) run ./cmd/experiments -exp all -cycles 24000 -format md -out results -progress

## audit: run every simulation with the invariant auditors enabled
## (request conservation, MSHR accounting, queue bounds) — slower, but
## any bookkeeping bug aborts the sweep with an *AuditError.
audit:
	$(GO) test -run 'TestAuditorsPassOnCatalogue|TestWatchdog' ./internal/sim
	$(GO) run ./cmd/experiments -exp fig3 -cycles 8000 -audit -progress > /dev/null

## fuzz: short fuzzing smoke over the crypto and secmem codecs and
## the result-cache envelope decoder (peer bytes from PUT /api/cache)
fuzz:
	$(GO) test -run Fuzz -fuzz FuzzCounterModeRoundTrip -fuzztime 10s ./internal/secmem
	$(GO) test -run Fuzz -fuzz FuzzAESAgainstStdlib -fuzztime 10s ./internal/crypto
	$(GO) test -run Fuzz -fuzz FuzzDecodeEnvelope -fuzztime 10s ./internal/resultcache
