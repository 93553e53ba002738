# Development targets for the redotheory reproduction.

GO ?= go

.PHONY: all build loc vet test test-short race soak fuzz fuzz-smoke nestedcrash-smoke shard-smoke trace-smoke serve-smoke bench-smoke bench bench-compare bench-full experiments examples tools campaign metrics cover clean

all: build vet test

build:
	$(GO) build ./...

# loc prints non-test Go lines per internal/* and cmd/* package: the
# figure ROADMAP's line-count acceptance criteria are stated in.
loc:
	@for d in internal/* cmd/*; do \
		printf '%6d %s\n' "$$(find $$d -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" $$d; \
	done

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

soak:
	$(GO) test -run Soak -v .

fuzz:
	$(GO) test -fuzz FuzzDecodeMaterialize -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzInsertSequence -fuzztime 30s ./internal/btree/
	$(GO) test -fuzz FuzzPageDecode -fuzztime 30s ./internal/btree/

# fuzz-smoke is the differential crash-point fuzzer on a fixed-seed
# grid under the race detector: every cell's sequential, parallel, and
# degraded recoveries must agree with the determined state. Exits 1 on
# any oracle disagreement; repro artifacts land in fuzzout/.
fuzz-smoke:
	$(GO) run -race ./cmd/redofuzz -seeds 2 -histories 3 -faults -shrink -budget 30s -out fuzzout

# nestedcrash-smoke crashes recovery itself: a fixed-seed grid of
# methods × crash points × nested-crash schedules run under the race
# detector, where the supervisor must drive every cell's restart loop to
# the determined state with monotone install progress. Exits 1 on
# non-convergence or oracle disagreement; repro artifacts land in
# nestedcrashout/.
nestedcrash-smoke:
	$(GO) run -race ./cmd/redosim -nested-crash -ops 12 -pages 4 -seeds 3 -workers 4 -out nestedcrashout -metrics nestedcrash-metrics.json
	$(GO) run ./cmd/redostats -check nestedcrash-metrics.json

# shard-smoke is the sharded certified-cut differential grid under the
# race detector: every eligible method × shard counts {2,4} ×
# synchronized/staggered per-shard crash points × seeds must recover
# per shard from the certified cut (sequentially and in parallel) to
# exactly the merged single-log oracle's state, with every shard
# projection passing the invariant audit. 2000 operations a cell is long
# enough for truncation and long uncertified tails (certification no
# longer scales with log length). Exits 1 on any divergence; repro
# artifacts land in shardout/.
shard-smoke:
	$(GO) run -race ./cmd/redosim -shards 2,4 -seeds 2 -ops 2000 -out shardout

# trace-smoke exercises the causal-tracing pipeline end to end: trace
# representative recoveries (every method's parallel recovery plus one
# supervised nested-crash run), validate the artifact's well-formedness
# with redotrace -check, render the critical path / straggler / timeline
# profile, export the Chrome trace-event (Perfetto) form, and confirm
# the export is valid JSON.
trace-smoke:
	$(GO) run ./cmd/redosim -trace trace.json -ops 24 -pages 6
	$(GO) run ./cmd/redotrace -check trace.json
	$(GO) run ./cmd/redotrace trace.json
	$(GO) run ./cmd/redotrace -chrome trace-chrome.json trace.json
	$(GO) run ./cmd/redostats -top 10 trace.json
	if command -v python3 >/dev/null; then python3 -m json.tool trace-chrome.json > /dev/null; fi

# serve-smoke is the instant-restart availability benchmark: crash a
# hot-page fixture, serve reads/writes immediately through lazy
# per-page redo under concurrent client load, and drain to full
# recovery. redoserve regenerates BENCH_serve.json (trend history
# carried forward from the checked-in report) and exits 1 when p99
# time-to-first-read exceeds 10% of an offline full recovery.
serve-smoke:
	$(GO) run ./cmd/redoserve -bench -out BENCH_serve.json -baseline BENCH_serve.json

# bench-smoke vets and tests the benchmark harness: bench/ is a nested
# module that `go build ./... && go test ./...` at the root never
# reaches, so a change to an internal type it consumes breaks it
# silently without this.
bench-smoke:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# bench runs the recovery benchmarks and the sequential-vs-parallel
# comparison; redobench writes BENCH_parallel.json and fails when the
# parallel engine breaks its perf contract (slower than sequential) or
# when allocs_per_op regresses >10% against the checked-in baseline.
bench: bench-compare
	$(GO) test -run xxx -bench 'Recovery|Campaign' -benchmem .

# bench-compare benchmarks recovery against the checked-in
# BENCH_parallel.json baseline: it prints a delta table (time and
# allocations per configuration), gates allocs_per_op at 10% over the
# baseline, and regenerates the artifact with the trend history
# carried forward.
bench-compare:
	$(GO) run ./cmd/redobench -out BENCH_parallel.json -baseline BENCH_parallel.json

bench-full:
	$(GO) test -run xxx -bench . -benchmem .

experiments:
	$(GO) test -run Experiment -v .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/scenarios
	$(GO) run ./examples/btreesplit
	$(GO) run ./examples/crashsweep
	$(GO) run ./examples/checker
	$(GO) run ./examples/onlineaudit
	$(GO) run ./examples/mediafault
	$(GO) run ./examples/fuzzrepro
	$(GO) run ./examples/tracing
	$(GO) run ./examples/instantrestart

tools:
	$(GO) run ./cmd/redograph -all
	$(GO) run ./cmd/redosim -matrix
	$(GO) run ./cmd/redosim -experiment splitlog
	$(GO) run ./cmd/redosim -walfault

campaign:
	$(GO) run ./cmd/redosim -campaign

# metrics runs the fault campaign with live telemetry, validates the
# report against the v1 schema, and renders the per-method
# phase-time/selectivity table plus the partition width histogram.
metrics:
	$(GO) run ./cmd/redosim -campaign -metrics metrics.json
	$(GO) run ./cmd/redostats -check metrics.json
	$(GO) run ./cmd/redostats -widths metrics.json

cover:
	$(GO) test -cover ./internal/...

clean:
	$(GO) clean -testcache
