# Build/test/benchmark entry points (documented in README.md).

GO ?= go

.PHONY: all build test test-race vet fmt-check bench \
	golden cross-smoke bench-vet bench-test bench-align fuzz-smoke loc ci clean

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
# its commit clock, the k-d tree's lock-free parallel build (goroutines
# writing disjoint pre-order node ranges), the 2PCF counter's ordered chunk
# folds, the catalog's pinned sources and streaming passes, the sharded
# checkpointing pipeline, the execution layer's cancellation paths, the
# scenario registry's multi-stage workloads on both backends, the galactosd
# job server (worker pool, SSE streaming, disconnect-cancel) with its
# client, the fault-injection/retry layers whose counters and plans are hit
# from every worker goroutine, the chaos sweep (every case under its fault
# plan), galactosd's crash sweep, whose SIGKILLed daemon is the race-built
# test binary itself, and the galactos command, whose sharded and resume
# rows run the checkpointing pipeline's goroutines through the CLI.
test-race:
	$(GO) test -race ./internal/core/... ./internal/kdtree/... ./internal/twopcf/... ./internal/catalog/... ./internal/shard/... \
		./internal/exec/... ./internal/scenario/... ./internal/service/... ./client/... \
		./internal/faultpoint/... ./internal/retry/... ./internal/journal/... \
		./internal/chaos/... ./cmd/galactosd/... ./cmd/galactos/...

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

# Regenerate the goldens after a deliberate change of the answer's bits (a
# regrouped sum, a new lane body), then verify them: the scenario goldens
# (internal/scenario/testdata/golden.json, one hash per scenario on the
# local backend) and the sharded backend's (internal/shard/testdata/
# golden.json, one file-streamed run through 8 checkpointed parts). Each
# hash is the same under every lane dispatch, so any host will do —
# TestGoldenHashes and TestShardedGoldenHash run under every dispatch the
# host has and fail if they disagree. Review the diff: it should touch
# exactly the runs the change moves.
GOLDEN_PKGS = ./internal/scenario ./internal/shard
GOLDEN_RUN = '^(TestGoldenHashes|TestShardedGoldenHash)$$'
golden:
	$(GO) test -count=1 $(GOLDEN_PKGS) -run $(GOLDEN_RUN) -update-golden
	$(GO) test -count=1 $(GOLDEN_PKGS) -run $(GOLDEN_RUN)

# Cross-compile smoke: the build must stay portable (arm64 has no asm lane
# bodies — the noasm files of lanes, sphharm and kdtree must fill in) and
# legal at the highest amd64 feature level. arm64 is also vetted, which
# compiles its tests: the portable bodies' bitwise pins live in _test.go
# files a build never sees. No emulation is available to run the result, so
# scripts/fma-guard.sh reads its disassembly instead: arm64 fuses x*y + z
# where the source does not round the product explicitly, amd64 never does,
# and any such fusion in galactos code outside the explicit-math.FMA files
# would give arm64 different result bits.
cross-smoke:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...
	GO=$(GO) sh scripts/fma-guard.sh
	GOOS=linux GOARCH=amd64 GOAMD64=v4 $(GO) build ./...

# bench/ is its own module (outside `go build ./...`): vet and build it so
# an API deletion that breaks the repository benchmark fails here, not in
# the benchmark pipeline. The APIs bench/ pins, which stay until ROADMAP
# item 1 retires the probes that use them: core.Config.Finder / LeafSize /
# GridCell, core.Config.BucketSize (read after Normalize to size a
# kernel), core.FinderKD64, kdtree.Build[float32], grid.Build,
# core.NeighborFinder, exec.Spec.Stream / ShardConcurrency, partition.Split,
# partition.Halo and partition.Part; sphharm.Kernel.AccumulateTile (the
# engine runs SumTile) and sphharm.Reduce and YlmTable.AlmRI, portable
# references kept as API because its probes time them (the engine runs
# ReduceBins and AlmBins); and the facade
# surface it runs through: galactos.Request (an alias of exec.Request) with
# its fields Config, Backend, Catalog and Path, galactos.Run, the
# galactos.RunResult fields Result, Elapsed and Units (with the unit fields
# Elapsed, NOwned and NHalo), and the exec.Spec fields Name, Shards,
# CheckpointDir and Keep, and Resume, a deprecated pin it still sets (decoded
# and ignored: a checkpoint directory resumes whenever its manifest names
# the same run). Its nominal
# seconds divide by calibrate()'s loop, whose speed on the 2-vCPU host
# follows main.calibrate's address mod 64: check `make bench-align` and
# host.solve_wall_s before reading a shift in solve_s as the engine's.
bench-vet:
	cd bench && $(GO) vet . && $(GO) build -o /dev/null .

# main.calibrate's address and its residue mod 64 in the binary bench/run.sh
# last built, or in each binary BIN names (`make bench-align
# BIN="../parent/.bench_build/galactos-bench .bench_build/galactos-bench"`):
# the nominal metrics divide by that loop's speed, which follows the residue
# on the 2-vCPU host, so compare it (and raw host.solve_wall_s) between two
# builds before reading a nominal shift as the engine's.
bench-align:
	@for bin in $(or $(BIN),.bench_build/galactos-bench); do \
	if [ ! -x $$bin ]; then echo "$$bin is missing: build it with bash bench/run.sh -h"; exit 1; fi; \
	addr=$$($(GO) tool nm $$bin | awk '$$3 == "main.calibrate" { print $$1 }'); \
	if [ -z "$$addr" ]; then echo "main.calibrate not found in $$bin"; exit 1; fi; \
	echo "$$bin: main.calibrate 0x$$addr, mod 64 = $$((0x$$addr % 64))"; done

# The benchmark's own tests (~15 s): its bruteforce oracle, golden digests
# and metric plumbing run against the engine as it is in this checkout, so
# an engine change that moves the answer fails here.
bench-test:
	cd bench && $(GO) test -count=1 ./...

# Five seconds of native fuzzing per decoder that reads bytes it did not
# just write (resultio, the binary and CSV catalog cursors, the journal
# segment reader, the shard checkpoint manifest, the client's SSE reader,
# galactosd's submit decode and validation, the Request decode's fast
# path), seeded from the round-trip and rejection tests: never a panic, the
# block codecs keep agreeing with their per-record oracles, the worker
# count never moves a cache key, and the fast path reads what encoding/json
# does. The CRC-64 kernel those decoders check with is fuzzed against
# hash/crc64 too.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzReadResult -fuzztime=5s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzCRC64 -fuzztime=5s ./internal/lanes
	$(GO) test -run=^$$ -fuzz=FuzzBinaryCursor -fuzztime=5s ./internal/catalog
	$(GO) test -run=^$$ -fuzz=FuzzCSVCursor -fuzztime=5s ./internal/catalog
	$(GO) test -run=^$$ -fuzz=FuzzReplaySegment -fuzztime=5s ./internal/journal
	$(GO) test -run=^$$ -fuzz=FuzzManifest -fuzztime=5s ./internal/shard
	$(GO) test -run=^$$ -fuzz=FuzzReadSSE -fuzztime=5s ./client
	$(GO) test -run=^$$ -fuzz=FuzzSubmitRequest -fuzztime=5s ./internal/service
	$(GO) test -run=^$$ -fuzz=FuzzRequestWire -fuzztime=5s ./internal/exec

# The line budget as a command (ROADMAP item 6): non-test Go lines per
# package outside bench/ and their total with the internal package count,
# then the assembly lines beside them. Each internal package also shows how
# many non-test packages import it (go list's Imports), so a package with
# one importer, a candidate to fold into it, reads off the table; each
# command shows how many flags it defines (its fs.<Type>( calls), so its
# knob count reads off the table too.
loc:
	@{ $(GO) list -f '{{range .Imports}}imports {{.}}{{"\n"}}{{end}}' ./...; \
		find ./cmd -name '*.go' ! -name '*_test.go' -print0 | \
			xargs -0 grep -HE '\<fs\.(Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)\(' | \
			sed 's|/[^/]*:.*||; s|^|flag |'; \
		find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 wc -l; } | \
		awk '$$1 == "imports" { if (sub(/^galactos\/internal\//, "./internal/", $$2)) imp[$$2]++; next } \
			$$1 == "flag" { fl[$$2]++; next } \
			$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) { if (d ~ /^\.\/internal\//) { k++; s = sprintf("  (imported by %d)", imp[d]) } \
					else if (d ~ /^\.\/cmd\//) s = sprintf("  (%d flags)", fl[d]); else s = ""; \
					printf "%7d  %s%s\n", n[d], d, s | "sort -k2" } \
				close("sort -k2"); printf "%7d  total (%d internal packages)\n", t, k }'
	@find . -name '*.s' ! -path './bench/*' -print0 | xargs -0 cat | wc -l | awk '{ printf "%7d  asm (.s)\n", $$1 }'

ci: fmt-check build vet test bench bench-vet bench-test fuzz-smoke

clean:
	$(GO) clean ./...
