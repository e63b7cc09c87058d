# Repository tooling. The `race` target guards the code that runs on more
# than one goroutine: any data race there fails the build.

GO ?= go

.PHONY: build test race bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the concurrent packages: chase cancellation (a context
# canceled from another goroutine mid-chase, cancel_test.go in
# chase/incremental/core) and the shared proof-closure memo, the server's
# session table and group committer with the admission/deadline
# middleware, the WAL, the snapshot envelope and the consistent-hash
# router, plus the shared LRUs and singleflight. Run this after touching
# concurrency or cancellation in any of them.
race:
	$(GO) test -race ./internal/chase/... ./internal/database/... ./internal/incremental/... ./internal/core/... ./internal/server/... ./internal/lru/... ./internal/leakcheck/... ./internal/wal/... ./internal/figures/... ./internal/snapshot/... ./internal/router/...

# Micro-benchmarks (one per paper table/figure plus pipeline stages);
# BENCH narrows the pattern, e.g. `make bench BENCH=BenchmarkChase`.
BENCH ?= .
bench:
	$(GO) test -run NONE -bench '$(BENCH)' -benchmem ./...
