# Convenience targets; everything is plain `go` underneath.

GO ?= go
CACHE ?= /tmp/lppa-ds.gob

.PHONY: all build test race cover bench alloc-guard trace-guard fuzz fuzz-short chaos epoch-soak experiments examples metrics-snapshot trace-snapshot audit-snapshot ops-smoke clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem

# Per-phase/per-layer cost profile of one instrumented N=300 private
# round, as the observability registry's JSON snapshot. CI uploads it as
# a build artifact. The round is the same at every width; -workers is
# pinned only because the lppa_round_workers gauge reports it (the
# default is one per CPU).
metrics-snapshot:
	$(GO) run ./cmd/lppa-sim -experiment round -n 300 -workers 2 -cache $(CACHE) \
		-metrics-out METRICS_ROUND.json

# Chrome trace_event snapshot of one instrumented N=300 private round
# (open TRACE_ROUND.json in ui.perfetto.dev). CI uploads it as a build
# artifact.
trace-snapshot:
	$(GO) run ./cmd/lppa-sim -experiment round -n 300 -cache $(CACHE) \
		-trace-out TRACE_ROUND.json

# Privacy-leakage audit of the same round: per-bidder masked-digest
# counts, conflict degrees, and robust-BCM anonymity-set sizes.
audit-snapshot:
	$(GO) run ./cmd/lppa-sim -experiment round -n 300 -cache $(CACHE) \
		-audit-out AUDIT_ROUND.json

# Fail if running a round with the zero Telemetry — the production
# default — or a sampled tracer that skips the round costs a single
# allocation over the untraced baseline: disabled telemetry must be free.
# (BenchmarkRoundTraceOverhead reports the ns/op side.)
trace-guard:
	$(GO) test -run TestTraceDisabledAllocationFree -count=1 -v .

# Fail if a zero-allocation hot path allocates: masking, the counted
# interned intersection every auctioneer build runs (which must also tally
# every call), and the index candidate scan. The tests average
# testing.AllocsPerRun over 1000 calls, so one extra allocation per call
# fails them and a stray runtime allocation does not.
# (BenchmarkZeroAllocMask, BenchmarkInternedIntersect and
# BenchmarkIndexCursorRow report the ns/op side.)
alloc-guard:
	$(GO) test -run 'ZeroAlloc' -count=1 -v ./internal/mask/

# CI smoke of the live ops plane: boots the epochal demo with an
# impossibly tight SLO and asserts the probe endpoints, burn-rate alarm,
# event log, sampled traces, and forced flight dump end to end.
ops-smoke:
	sh scripts/ops_smoke.sh

# Short fuzz pass over every fuzz target (CI smoke; extend -fuzztime locally).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzMemberMatchesComparison -fuzztime=10s ./internal/prefix/
	$(GO) test -run=NONE -fuzz=FuzzCoverTiles -fuzztime=10s ./internal/prefix/
	$(GO) test -run=NONE -fuzz=FuzzOpenValueRejectsGarbage -fuzztime=10s ./internal/mask/
	$(GO) test -run=NONE -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/transport/
	$(GO) test -run=NONE -fuzz=FuzzRunMatchesPlaintextTruth -fuzztime=10s ./internal/round/
	$(GO) test -run=NONE -fuzz=FuzzIndexedEquivalence -fuzztime=10s ./internal/core/

# Quicker smoke of the attacker-facing decoders only (the wire frame parser
# fed by untrusted peers) — the CI test job runs this on every push.
fuzz-short:
	$(GO) test -run=NONE -fuzz=FuzzDecodeFrame -fuzztime=5s ./internal/transport/

# Chaos matrix under the race detector: full networked rounds with seeded
# fault injection (drop/dup/corrupt/truncate/slow-loris/crash). Failing
# seeds land in CHAOS_FAILURES.txt; replay one with
# LPPA_CHAOS_SEEDS=<seed> go test -race -run 'TestChaosMatrix/<class>' ./internal/transport/
chaos:
	LPPA_CHAOS_REPLAY_FILE=CHAOS_FAILURES.txt \
		$(GO) test -race -run 'TestChaos|TestAuctioneerQuorum' -count=1 ./internal/transport/ ./internal/faults/

# Short multi-epoch chaos run of the epochal service under the race
# detector: concurrent submitters racing the sealing ticker and explicit
# seals through the admission gate, ledger exactness asserted at the end.
# Failed or degraded epochs dump flight-recorder traces into
# FLIGHT_EPOCH_SOAK/ (CI uploads the directory when the job fails).
epoch-soak:
	LPPA_SOAK_FLIGHT_DIR=FLIGHT_EPOCH_SOAK \
		$(GO) test -race -run TestEpochServiceSoak -count=1 -v ./internal/epoch/

# Reproduce the paper's full evaluation (dataset cached at $(CACHE)).
experiments:
	$(GO) run ./cmd/lppa-sim -experiment all -cache $(CACHE)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/attackdemo
	$(GO) run ./examples/tradeoff
	$(GO) run ./examples/networked
	$(GO) run ./examples/multiround

clean:
	rm -f lppa-sim lppa-attack lppa-net *.test
