# Development and CI entry points. `make ci` is the gate every PR must
# pass: a gofmt check, vet, a check that the daemon does not link the
# test oracle, the full test suite, the
# concurrency-sensitive packages under the race detector, a fuzz smoke
# pass over every fuzz target, one iteration of every go benchmark, and
# a bounded differential-oracle campaign (see internal/oracle and
# TUTORIAL.md "Verifying the simulator").

GO ?= go

# Oracle campaign knobs: master seed, seeded traces per cache
# organisation, and maximum references per trace.
ORACLE_SEED   ?= 1
ORACLE_TRACES ?= 100
ORACLE_MAXREFS ?= 1024

# Per-target budget for the fuzz smoke pass.
FUZZTIME ?= 10s

# Seeded fault schedules per `make chaos` run (see internal/sim/chaos).
CHAOS_SCHEDULES ?= 50

.PHONY: build test vet race race-server cluster-test stress chaos persist-test bench-go fmt-check oracle fuzz-smoke obs-test obscheck docs-check perfbench-check deps-check golden-update loc ci

build:
	$(GO) build ./...

# -shuffle=on randomizes test order within each package, so tests that
# secretly depend on a predecessor's side effects fail loudly; the seed
# is printed on failure for replay with -shuffle=<seed>.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# The server and its daemon are the concurrent subsystems; always race
# them. `make race` runs the whole tree when time permits.
race-server:
	$(GO) test -race ./internal/server/... ./cmd/vcached/... ./internal/client/...

race:
	$(GO) test -race ./...

# The multi-node cluster suite (in-process 3-node deployments: ring
# routing, scatter-gather sweeps, mid-sweep failover, hedging, draining)
# always runs under the race detector — failover is all concurrency.
cluster-test:
	$(GO) test -race -count=1 ./internal/cluster/...

# Overload stress suite under the race detector: fault-injected shedding,
# organic 429 bursts, answers that do not change under pressure,
# cancellation, and the error-envelope contract (see
# internal/server/overload_test.go).
stress:
	$(GO) test -race -count=1 -run 'Overload|Shed|Cancel|Pressure|Envelope|Partial' ./internal/server/... ./internal/client/...

# The go-test microbenchmarks (single iteration, compile-and-run check),
# among them BenchmarkStrided64's batch and per-access rows for every
# cache organisation. Measured runs: `go test -bench=<name> -count=N`;
# the end-to-end benchmark is `bash perfbench/run.sh` (EXPERIMENTS.md
# "Performance tracking").
bench-go:
	$(GO) test -bench=. -benchtime=1x -run=NONE ./...

# Formatting gate: fails when any Go file in the tree is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Bounded differential campaign: seeded traces through every cache
# organisation's fast simulator and its slow-but-obviously-correct
# reference, plus the metamorphic property suite. Exits non-zero on the
# first divergence, printing a minimised counterexample.
oracle:
	$(GO) run ./cmd/oracle -seed $(ORACLE_SEED) -n $(ORACLE_TRACES) -maxrefs $(ORACLE_MAXREFS)

# Deterministic cluster simulation: N seeded fault schedules (crashes,
# restarts, partitions, latency spikes, clock skew) against an
# in-process 3-node cluster, with invariants checked after every step
# — no lost jobs, oracle-identical results, memo locality, admission
# quiesce, no goroutine leaks. Violations print the seed; replay with
# Run(Options{Seed: <seed>}). See TUTORIAL.md "Reproducing a cluster
# failure from a seed".
chaos:
	CHAOS_SCHEDULES=$(CHAOS_SCHEDULES) $(GO) test -race -count=1 ./internal/sim/...

# Short randomized run of every fuzz target (go test allows one -fuzz
# pattern per invocation, hence one line per target).
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzReduce -fuzztime=$(FUZZTIME) ./internal/mersenne/
	$(GO) test -run=NONE -fuzz=FuzzAddressUnit -fuzztime=$(FUZZTIME) ./internal/mersenne/
	$(GO) test -run=NONE -fuzz=FuzzModulusVsBigInt -fuzztime=$(FUZZTIME) ./internal/mersenne/
	$(GO) test -run=NONE -fuzz=FuzzCacheDifferential -fuzztime=$(FUZZTIME) ./internal/cache/
	$(GO) test -run=NONE -fuzz=FuzzSimVsReference -fuzztime=$(FUZZTIME) ./internal/cache/
	$(GO) test -run=NONE -fuzz=FuzzRepeatPass -fuzztime=$(FUZZTIME) ./internal/cache/
	$(GO) test -run=NONE -fuzz=FuzzBankModelVsBruteForce -fuzztime=$(FUZZTIME) ./internal/membank/
	$(GO) test -run=NONE -fuzz=FuzzJobKey -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run=NONE -fuzz=FuzzTraceRead -fuzztime=$(FUZZTIME) ./internal/trace/

# Observability suite: the tracing/exposition unit layer, both tiers'
# /metrics and /v1/stats goldens, the family-set and documented-family
# checks, the quantile-vs-ladder property tests, and the end-to-end
# stitched-span-tree determinism checks — all under the race detector.
# obscheck is the span-policy lint: every route registration in the
# HTTP layers must go through a span-recording wrapper.
obs-test: obscheck
	$(GO) test -race -count=1 ./internal/obs/ ./cmd/obscheck/
	$(GO) test -race -count=1 -run 'Metrics|Traces|Trace|Quantile|Exposition|Golden|Families' ./internal/server/ ./internal/cluster/

obscheck:
	$(GO) run ./cmd/obscheck

# Documentation lint: every mux route in the HTTP layers has an API.md
# entry, every intra-repo markdown link resolves, and every exported
# identifier in internal/cluster and internal/persist carries a doc
# comment (cmd/doccheck, plus its own tests).
docs-check:
	$(GO) run ./cmd/doccheck
	$(GO) test -count=1 ./cmd/doccheck/

# Durable memo-tier suite under the race detector: the persist store's
# own tests (log replay, torn tails, corrupt-record quarantine, segment
# rotation, compaction, snapshot restore), plus the warm-restart,
# conditional-GET, and stats-schema-2 contracts across the server,
# client, cluster, and chaos layers.
persist-test:
	$(GO) test -race -count=1 ./internal/persist/
	$(GO) test -race -count=1 -run 'Persist|Warm|ETag|Conditional|StatsV2|StatsSchema' ./internal/server/ ./internal/client/ ./internal/cluster/ ./internal/sim/chaos/

# The end-to-end benchmark (perfbench/, see BENCHMARK.json) is a module
# of its own that uses this one through `replace primecache => ../`, so
# the root `go build ./...` never compiles it. Vet and test it here, so
# an API change in the packages it uses fails CI rather than the next
# benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

# The differential oracle is a test tool: the production daemon must
# not link it. Fails when cmd/vcached depends on internal/oracle.
deps-check:
	@if $(GO) list -deps ./cmd/vcached | grep -qx 'primecache/internal/oracle'; then \
		echo "cmd/vcached links primecache/internal/oracle"; exit 1; fi

# Regenerate the golden files for the report renderers, the figures
# command, the /metrics exposition and the compute endpoints' wire
# bytes (internal/server/testdata/wire.golden), both tiers' /v1/stats
# answers and the coordinator's /metrics (internal/cluster/testdata)
# after an intended output change.
golden-update:
	$(GO) test ./internal/report/ ./cmd/figures/ -update
	$(GO) test ./internal/server/ -run Golden -update
	$(GO) test ./internal/cluster/ -run Golden -update

# Go line counts of the root module (perfbench/ is a module of its
# own): non-test and test lines per package directory, then the totals.
# Every change reports its net line count from this target, run before
# and after.
loc:
	@find . -name '*.go' -not -path './perfbench/*' -not -path './.*' -print0 | xargs -0 wc -l | \
	awk '$$2 == "total" { next } \
	{ d = $$2; sub(/\/[^\/]*$$/, "", d); t = ($$2 ~ /_test\.go$$/); n[d, t] += $$1; dirs[d] = 1; sum[t] += $$1 } \
	END { printf "%-28s %9s %9s\n", "package", "non-test", "test"; \
	for (d in dirs) printf "%-28s %9d %9d\n", d, n[d, 0], n[d, 1] | "sort"; close("sort"); \
	printf "%-28s %9d %9d\n", "total", sum[0], sum[1] }'

ci: fmt-check vet build deps-check test race-server cluster-test stress chaos persist-test obs-test docs-check perfbench-check fuzz-smoke oracle bench-go
