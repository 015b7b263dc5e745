# Targets mirror .github/workflows/ci.yml step for step: every workflow
# step that exercises the module runs `make <target>`, and
# scripts/check_ci_sync.sh (run by `lint`) fails the build when the
# workflow's target set and the `ci` aggregate below drift apart.

GO ?= go

# Pinned staticcheck (2025.1.1); CI installs exactly this version.
STATICCHECK_VERSION ?= v0.6.1

.PHONY: all build test bench bench-adaptive bench-bits bench-compare staticcheck staticcheck-install lint smoke-serve smoke-cluster smoke-differential fuzz-smoke vuln ci

all: ci

# staticcheck-install fetches the pinned linter; CI runs it before the
# staticcheck step so the version is pinned in exactly one place (above).
# Needs network, so it is deliberately NOT part of the `ci` aggregate.
staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

lint:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) vet ./examples/...
	./scripts/check_ci_sync.sh

# staticcheck runs the pinned linter when the tool is available
# (CI installs it; offline dev machines skip with a notice).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# bench skips the AdaptivePrecision comparison — that one (the most
# expensive benchmark) runs exactly once, in its own bench-adaptive step.
bench:
	$(GO) test -bench=. -skip=AdaptivePrecision -benchtime=1x -run='^$$'

# bench-adaptive runs the fixed-vs-adaptive comparison on the same cell:
# both meet the same interval target, the adaptive side reports the
# trials it actually consumed.
bench-adaptive:
	$(GO) test -bench=AdaptivePrecision -benchtime=1x -run='^$$'

# bench-bits is the bit-parallel zero-alloc gate: run just the steady-state
# chunk scenarios with membench's unconditional zero-alloc check (no
# baseline needed) — fast enough to run on every hot-path change.
bench-bits:
	$(GO) run ./cmd/membench -rev bits -o BENCH_bits.json -only '^(compiled-kernel|compiled-products|rng-bulkfill|mc-batch|mc-mean-batch|mc-instrumented|obs-metrics)/'

# bench-compare is the perf-regression gate: run the canonical
# cmd/membench suite, emit BENCH_new.json, and compare it against the
# committed BENCH_baseline.json with the CI tolerances — fail on >2x
# ns/op growth, or on ANY allocs/op growth on zero-alloc scenarios.
bench-compare:
	$(GO) run ./cmd/membench -rev new -o BENCH_new.json -baseline BENCH_baseline.json

smoke-serve:
	./scripts/smoke_serve.sh

# smoke-cluster boots a 2-worker + coordinator fleet with a shared
# persistent store and checks the distributed artifact is byte-identical
# to single-process memsweep -o.
smoke-cluster:
	./scripts/smoke_cluster.sh

# smoke-differential is the bounded-time seeded differential gate:
# randomized queries cross-checked between the compiled engine and the
# paper's reference process (the []bool NoBugBatch route), and across
# the exact routes — any divergence fails with a deterministic repro
# (see cmd/memdiff).
smoke-differential:
	$(GO) run ./cmd/memdiff -duration 10s -seed 1

# fuzz-smoke replays the committed fuzz corpora under plain `go test`,
# then runs each native fuzz target (FuzzParseLitmus,
# FuzzDifferentialEstimate) for a bounded FUZZTIME (default 30s each).
# Crashers land in the packages' testdata/fuzz/ directories; CI uploads
# them as artifacts on failure.
fuzz-smoke:
	./scripts/fuzz_smoke.sh

# vuln scans the module with govulncheck when the tool is available
# (CI installs it; offline dev machines skip with a notice).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

ci: lint staticcheck build test bench bench-adaptive bench-bits bench-compare smoke-serve smoke-cluster smoke-differential fuzz-smoke vuln
