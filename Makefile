# Build/test/benchmark entry points (documented in README.md).

GO ?= go

.PHONY: all build test test-race vet fmt-check bench \
	golden cross-smoke scenario-smoke \
	service-smoke chaos-smoke crash-smoke bench-vet bench-test fuzz-smoke loc ci clean

all: build

build:
	$(GO) build ./...

# Tier-1 at three scheduler widths: worker defaults derive from GOMAXPROCS,
# so a test that is green on one host's core count by accident fails here —
# and the scenario goldens, which leave Workers at that default, are checked
# at three worker counts. The Example functions' // Output: blocks (the
# root package's walkthroughs and the client's) are checked at all three
# widths too.
test:
	@set -e; for p in 1 2 8; do \
		echo "== go test ./... (GOMAXPROCS=$$p) =="; \
		GOMAXPROCS=$$p $(GO) test -count=1 ./...; done

# Race detector over the concurrency surfaces: the engine worker pool and
# its commit clock, the 2PCF counter's ordered chunk folds, the sharded
# checkpointing pipeline, the execution layer's cancellation paths, the
# scenario registry's multi-stage workloads, the galactosd job server
# (worker pool, SSE streaming, disconnect-cancel) with its client, and the
# fault-injection/retry layers whose counters and plans are hit from every
# worker goroutine.
test-race:
	$(GO) test -race ./internal/core/... ./internal/twopcf/... ./internal/shard/... ./internal/exec/... \
		./internal/scenario/... ./internal/service/... ./client/... \
		./internal/faultpoint/... ./internal/retry/... ./internal/journal/...

vet:
	$(GO) vet ./...

# Formatting drift fails the pipeline.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Short-mode benchmark smoke: every benchmark runs one iteration, which
# catches regressions in the bench harness without laptop-hours of timing.
bench:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# Regenerate the scenario goldens after a deliberate change of the answer's
# bits (a regrouped sum, a new lane body), then verify them: one hash per
# scenario, the same under every lane dispatch, so any host will do —
# TestGoldenHashes runs each scenario under every dispatch the host has and
# fails if they disagree. Review the diff: it should touch exactly the
# scenarios the change moves.
golden:
	$(GO) test -count=1 ./internal/scenario -run TestGoldenHashes -update-golden
	$(GO) test -count=1 ./internal/scenario -run TestGoldenHashes

# Cross-compile smoke: the build must stay portable (arm64 has no asm lane
# bodies — the noasm files of lanes, sphharm and kdtree must fill in) and
# legal at the highest amd64 feature level. arm64 is also vetted, which
# compiles its tests: the portable bodies' bitwise pins live in _test.go
# files a build never sees. No emulation is available to run the result.
cross-smoke:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...
	GOOS=linux GOARCH=amd64 GOAMD64=v4 $(GO) build ./...

# Golden end-to-end gate for the galactosd service: start a server, submit
# a job over HTTP with streamed progress, verify the result is
# bitwise-equal to a direct in-process Run, resubmit and assert the answer
# comes from the result cache (hit counter + byte-identical payload).
service-smoke:
	$(GO) run ./cmd/galactos-load -smoke -n 800

# Run every scenario-registry entry end-to-end under the race detector:
# small N, the sharded backend at 2 shards (real cross-goroutine traffic),
# every invariant checked. Set SCENARIO_SUMMARY to a file path (CI uses
# $GITHUB_STEP_SUMMARY) to also append the per-scenario markdown table.
scenario-smoke:
	$(GO) run -race ./cmd/galactos -scenario all -n 900 -seed 1 \
		-backend sharded -shards 2 \
		$(if $(SCENARIO_SUMMARY),-scenario-summary "$(SCENARIO_SUMMARY)")

# Chaos sweep under the race detector: every case pins a clean run's bitwise
# hash, re-runs under a fixed-seed fault plan (injected errors, delays, and
# panics at every registered faultpoint), and must reproduce the hash
# exactly; the sweep also fails if any registered faultpoint never fired.
# Set CHAOS_SUMMARY to a file path (CI uses $GITHUB_STEP_SUMMARY) to also
# append the per-case and injected-vs-recovered markdown tables there.
chaos-smoke:
	$(GO) run -race ./cmd/galactos -chaos -n 500 -seed 1 \
		$(if $(CHAOS_SUMMARY),-chaos-summary "$(CHAOS_SUMMARY)")

# Subprocess crash sweep: galactosd (built with -race) launched as a real
# process on a throwaway -state-dir, SIGKILLed at faultpoint-scheduled
# moments — mid-sharded-job, with a job queued, after completion, with its
# cache entry corrupted on disk — then restarted on the same state dir and
# required to serve bitwise-identical results via journal replay, shard
# checkpoint resume, and the persistent cache. Set CHAOS_SUMMARY to a file
# path (CI uses $GITHUB_STEP_SUMMARY) to also append the per-case table.
crash-smoke:
	$(GO) build -race -o /tmp/galactosd-crash-smoke ./cmd/galactosd
	$(GO) run -race ./cmd/galactos -chaos-proc -n 400 -seed 1 \
		-galactosd /tmp/galactosd-crash-smoke \
		$(if $(CHAOS_SUMMARY),-chaos-summary "$(CHAOS_SUMMARY)")

# bench/ is its own module (outside `go build ./...`): vet and build it so
# an API deletion that breaks the repository benchmark fails here, not in
# the benchmark pipeline. The APIs bench/ pins, which stay until ROADMAP
# item 1 retires the probes that use them: core.Config.Finder / LeafSize /
# GridCell, core.Config.BucketSize (read after Normalize to size a
# kernel), core.FinderKD64, kdtree.Build[float32], grid.Build,
# core.NeighborFinder, exec.Spec.Stream / ShardConcurrency. Its nominal
# seconds divide by calibrate()'s loop, whose speed on the 2-vCPU host
# follows main.calibrate's address mod 64: check
# `go tool nm .bench_build/galactos-bench | grep main.calibrate` and
# host.solve_wall_s before reading a shift in solve_s as the engine's.
bench-vet:
	cd bench && $(GO) vet . && $(GO) build -o /dev/null .

# The benchmark's own tests (~15 s): its bruteforce oracle, golden digests
# and metric plumbing run against the engine as it is in this checkout, so
# an engine change that moves the answer fails here.
bench-test:
	cd bench && $(GO) test -count=1 ./...

# Five seconds of native fuzzing per decoder that reads bytes it did not
# just write (resultio, the binary and CSV catalog cursors, the journal
# segment reader, the shard checkpoint manifest, the client's SSE reader,
# galactosd's submit decode and validation), seeded from the round-trip and
# rejection tests: never a panic, the block codecs keep agreeing with their
# per-record oracles, and the worker count never moves a cache key.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzReadResult -fuzztime=5s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzBinaryCursor -fuzztime=5s ./internal/catalog
	$(GO) test -run=^$$ -fuzz=FuzzCSVCursor -fuzztime=5s ./internal/catalog
	$(GO) test -run=^$$ -fuzz=FuzzReplaySegment -fuzztime=5s ./internal/journal
	$(GO) test -run=^$$ -fuzz=FuzzManifest -fuzztime=5s ./internal/shard
	$(GO) test -run=^$$ -fuzz=FuzzReadSSE -fuzztime=5s ./client
	$(GO) test -run=^$$ -fuzz=FuzzSubmitRequest -fuzztime=5s ./internal/service

# The line budget as a command (ROADMAP item 6): non-test Go lines per
# package outside bench/ and their total, then the assembly lines beside them.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'
	@find . -name '*.s' ! -path './bench/*' -print0 | xargs -0 cat | wc -l | awk '{ printf "%7d  asm (.s)\n", $$1 }'

ci: fmt-check build vet test bench bench-vet bench-test fuzz-smoke

clean:
	$(GO) clean ./...
