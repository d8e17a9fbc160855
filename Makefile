# Standard targets for the autoindex reproduction. Everything is plain
# `go` underneath; the Makefile just fixes the flag sets so CI and
# humans run the same thing.

GO ?= go

.PHONY: all build test race vet lint lint-fixtures check bench bench-gate bench-pair smoke chaos-smoke scenarios race-scenarios fuzz loc loc-gate ci cover clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: go vet plus the repo's own linter (cmd/lint — eight
# checks, each run once over one whole-module program: its packages,
# functions and call graph; see ARCHITECTURE.md "Static analysis").
# Part of tier-1 verify.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/lint ./...

# The analyzer fixture corpus: every file under
# internal/analysis/testdata must produce exactly its // want
# annotations — each minimized from a real bug class the linter is
# contracted to catch. Run after changing any analyzer.
lint-fixtures:
	$(GO) test -run 'TestFixtureCorpus' -count=1 ./internal/analysis

# The full local gate: what CI runs on every change.
check: build test lint

# The concurrency-sensitive packages under the race detector: the
# sharded fleet harness, the telemetry hub, the fault-injection layer,
# and the control plane's micro-service loops vs. concurrent injectors —
# including the chaos property/determinism tests those packages carry.
# The engine's differential suite (fault-injected DDL vs. concurrent
# build paths) runs under race too, and so does its concurrent mixed
# load: sessions planning against the per-table index lists at once. Part of tier-1 verify.
# The metrics registry and the tracer join the list: their whole point
# is lock-free (atomic) updates from many workers at once.
# The serving path (wire protocol + session layer) is concurrency by
# definition — many client goroutines against one engine — so both
# packages run their full suites under race.
race:
	$(GO) test -race -count=1 ./internal/fleet ./internal/telemetry ./internal/controlplane ./internal/faults ./internal/metrics ./internal/trace ./internal/serve ./internal/wire
	$(GO) test -race -count=1 -run 'Differential|Concurrent' ./internal/engine

vet:
	$(GO) vet ./...

# Coverage floor for the chaos-critical packages: the control plane's
# state machine / crash recovery and the fault-injection layer. The
# floor is a ratchet — raise it when coverage rises, never lower it.
COVER_FLOOR = 75

cover:
	$(GO) test -coverprofile=cover.out ./internal/controlplane ./internal/faults
	@$(GO) tool cover -func=cover.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { pct = $$3; sub(/%/, "", pct); \
		  if (pct + 0 < floor) { printf "FAIL: coverage %s%% below floor %d%%\n", pct, floor; exit 1 } \
		  else { printf "ok: coverage %s%% meets floor %d%%\n", pct, floor } }'

# Paper tables/figures as benchmarks; BenchmarkFleetParallel also
# rewrites BENCH_fleet.json with per-worker-count timings.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# CI bench regression gate: stash the committed BENCH_fleet.json and
# BENCH_recommender.json, rerun the benchmarks (which rewrite the files
# in place), and fail if either fastest worker count got more than 25%
# slower (cmd/benchdiff -threshold default; minima are compared so one
# noisy worker-count sample can't flake the gate). The committed
# baselines are restored afterwards either way, so the working tree
# stays clean. See EXPERIMENTS.md "Benchmark ratchet" for how the
# baselines move.
bench-gate:
	@cp BENCH_fleet.json .bench_baseline.json
	@cp BENCH_recommender.json .bench_rec_baseline.json
	@cp BENCH_serve.json .bench_serve_baseline.json
	@cp BENCH_fleet_scale.json .bench_scale_baseline.json
	$(GO) test -bench='BenchmarkFleetParallel|BenchmarkRecommenderLatency|BenchmarkFleetScale' -benchtime=1x -run '^$$' ./internal/fleet
	$(GO) test -bench='BenchmarkServeThroughput' -benchtime=1x -run '^$$' ./internal/serve
	$(GO) test -run 'TestScaleMemoryBudget' -count=1 ./internal/fleet
	@$(GO) run ./cmd/benchdiff .bench_baseline.json BENCH_fleet.json; \
		fleet=$$?; mv .bench_baseline.json BENCH_fleet.json; \
		$(GO) run ./cmd/benchdiff .bench_rec_baseline.json BENCH_recommender.json; \
		rec=$$?; mv .bench_rec_baseline.json BENCH_recommender.json; \
		$(GO) run ./cmd/benchdiff .bench_serve_baseline.json BENCH_serve.json; \
		serve=$$?; mv .bench_serve_baseline.json BENCH_serve.json; \
		$(GO) run ./cmd/benchdiff .bench_scale_baseline.json BENCH_fleet_scale.json; \
		scale=$$?; mv .bench_scale_baseline.json BENCH_fleet_scale.json; \
		exit $$((fleet + rec + serve + scale))

# The paired comparison a performance claim is judged by: PARENT's and the
# working tree's ./bench built once each and run alternately, a fresh seed
# per pair; prints medians, exclusive quartiles, pairs won, a CLAIM-TEST
# verdict per metric, a BOUND-TEST ("no worse") verdict per end-to-end
# metric and any exact count or digest that differs
# (scripts/bench-pair.sh, EXPERIMENTS.md "Paired runs"). TRACE=1 pairs the
# traced runs and reports the per-layer metrics instead.
#   make bench-pair PARENT=HEAD~1 WORKLOAD=serve_mixed [PAIRS=10] [SEED=n] [TRACE=1]
PAIRS ?= 10
TRACE ?= 0

bench-pair:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pair PARENT=<ref> WORKLOAD=<name> [PAIRS=10] [TRACE=1]"; exit 2; }
	TRACE=$(TRACE) ./scripts/bench-pair.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# Live-traffic smoke test: builds the autoindexd and sqlload binaries,
# boots the daemon with both listeners, replays wire-protocol traffic
# and waits for it to reach the tuner via /livestats. Part of CI.
smoke:
	$(GO) test -run 'TestLiveTrafficSmoke' -count=1 .

# The chaos CLI paths end to end: the documented `opstats -chaos` run on
# the materialised fleet and a `scale -chaos` run under hibernation
# pressure, both on the one hour loop. fleetsim exits 1 on any invariant
# violation, so a post-drain audit that disagrees with the services it
# audits fails here, not in a user's terminal. Part of CI.
chaos-smoke:
	$(GO) run ./cmd/fleetsim -experiment opstats -databases 6 -days 4 -seed 7 -chaos
	$(GO) run ./cmd/fleetsim -experiment scale -tenants 300 -hours 48 -archetypes 3 \
		-resident-tenants 4 -active-fraction 0.05 -scale 0.25 -seed 7 -chaos > /dev/null

# The adversarial scenario pack (internal/scenario): all four
# generators at the pinned CI seed, writing the invariant verdicts to
# verdicts.json. Exits non-zero when any verdict fails; cmd/benchdiff
# can diff verdicts.json files to gate revert-rate regressions. The
# nightly workflow sweeps many seeds with -seeds.
scenarios:
	$(GO) run ./cmd/fleetsim -experiment scenarios -scenario all -verdicts-out verdicts.json

# The scenario determinism/acceptance suite under the race detector:
# nightly-only (the generators run whole fleets, so race inflates the
# runtime well past the PR budget).
race-scenarios:
	$(GO) test -race -count=1 ./internal/scenario

# Every fuzz target beyond its seed corpus, FUZZTIME each. Targets are
# listed per package with `go test -list '^Fuzz'`, so a new one joins
# without editing this file. Today: FuzzHibernateDecode (whatever bytes
# arrive, rehydration returns an error or a usable tenant — never a
# panic, a hang or an unbounded allocation) and FuzzParse (a parsed
# statement's SQL re-parses to the same SQL and fingerprint). Nightly
# runs each for 10m.
FUZZTIME ?= 60s

fuzz:
	@set -e; for pkg in $$(grep -rl --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench-pair '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		targets=$$(echo "$$targets" | grep '^Fuzz') || { echo "FAIL: $$pkg lists no fuzz targets"; exit 1; }; \
		for target in $$targets; do \
			echo "fuzz: $$target in $$pkg for $(FUZZTIME)"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# The tracked size of the system (ROADMAP item 3): non-test Go lines
# outside bench/. CI writes it to the job summary; a PR quotes the delta.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# The ratchet on that number: fails when `make loc` exceeds LOC_MAX, the
# last design PR's result. Lowering it is part of every design PR;
# raising it needs a sentence in CHANGES.md saying what the lines buy.
LOC_MAX = 29742

loc-gate:
	@n=$$($(MAKE) -s loc); if [ $$n -gt $(LOC_MAX) ]; then \
		echo "FAIL: $$n non-test Go lines outside bench/ exceeds LOC_MAX $(LOC_MAX)"; exit 1; \
	else echo "ok: $$n non-test Go lines outside bench/ within LOC_MAX $(LOC_MAX)"; fi

# The single CI entry point: everything the workflow runs, runnable
# locally with one command.
ci: check loc-gate race fuzz cover smoke chaos-smoke scenarios bench-gate

clean:
	$(GO) clean ./...
	rm -rf .bench-pair
	rm -f cover.out metrics.json verdicts.json .bench_baseline.json .bench_rec_baseline.json .bench_serve_baseline.json .bench_scale_baseline.json
