# Tier-1 gate and developer conveniences. `make check` is what CI runs.

GO ?= go

.PHONY: build vet test race fmt-check lint vet-alloc bench-module check bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	$(GO) run ./cmd/greenvet ./...

# Determinism & layering analyzer suite (stdlib-only). Findings are
# `file:line: analyzer: message`; exceptions need a
# `//greenvet:allow <analyzer> -- <reason>` comment.
lint:
	$(GO) run ./cmd/greenvet ./...

# Allocation-budget gate: rebuilds the budgeted hot-path packages with
# -gcflags=-m and fails when a package's heap-escape count exceeds its
# pinned ceiling (see `greenvet -list` for the budgets).
vet-alloc:
	$(GO) run ./cmd/greenvet -alloc

# The benchmark is its own module (cmd/greenperf), which `./...` above
# does not reach; build and vet it so an API change that breaks it fails.
bench-module:
	cd cmd/greenperf && $(GO) build ./... && $(GO) vet ./...

check: build vet lint vet-alloc test race fmt-check bench-module

# Run the in-package Go benchmarks and print them to stdout: the hot
# paths (engine dispatch, trace repair, suite sweep), the scheduler's
# cells×workers matrix, the live plane and the analyzer suite. The
# -benchtime counts are pinned so successive runs are comparable. The
# end-to-end benchmark record is cmd/greenperf/run.sh, run over the
# workloads and metrics that BENCHMARK.json declares.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineDispatch|BenchmarkRepair|BenchmarkSweep' \
		-benchtime 1x ./internal/sim ./internal/series ./internal/suite
	$(GO) test -run '^$$' -bench 'BenchmarkSweepAxis(Sequential|Parallel)|BenchmarkSweepMatrix' \
		-benchtime 10x ./internal/suite
	$(GO) test -run '^$$' -bench 'BenchmarkBusPublish|BenchmarkTapSpan|BenchmarkHubProgress' \
		-benchtime 100000x ./internal/obs/live
	$(GO) test -run '^$$' -bench 'BenchmarkLoadModule|BenchmarkAnalyzerSuite|BenchmarkCallGraph' \
		-benchtime 1x ./internal/analysis
