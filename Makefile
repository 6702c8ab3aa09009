GO ?= go

.PHONY: check fmt build vet test race transparency api-check api-update bench-enum serve-smoke crash-smoke cluster-smoke bench bench-overhead bench-json bench-json-check fuzz

# check is the full pre-merge gate: gofmt-clean sources, static checks, a
# clean build, the test suites of both modules, the race detector over the concurrent
# packages (the optimizer's parallel plan-space search, the join executors
# it drives, the fault injection/tolerance layer, and the estimator grid,
# classifier scratch, extraction tables, value dictionaries,
# value-query memo and plan-search memo that concurrent jobs share), the
# transparency properties (a fault profile with rate 0, and any execution
# worker count, must leave every execution bit-identical), the public-API
# drift gate, and a smoke run of the n-ary enumerator benchmark.
check: fmt vet build test race transparency api-check bench-enum

# fmt fails when any Go file is not gofmt-clean, listing the offenders.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

build:
	$(GO) build ./...

# vet also covers the nested perfbench module, which the root ./... skips;
# it imports the internal packages, so a refactor can break it silently.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# test also runs the perfbench module's own tests: short untraced and
# traced runs of both benchmark workloads, with their output checks. They
# write only to temporary directories.
test:
	$(GO) test ./...
	cd perfbench && $(GO) test ./...

race:
	$(GO) test -race ./internal/optimizer/... ./internal/join/... ./internal/faults/... ./internal/workload/... ./internal/obs/... ./internal/pipeline/... ./internal/service/... ./internal/durable/... ./internal/cluster/... ./internal/estimate/... ./internal/classifier/... ./internal/extract/... ./internal/relation/... ./internal/index/...
	$(GO) test -race -run 'TestConcurrentRunsOnOneTask|TestPlanMemoWarmthInvariance' -count=1 .

# transparency runs the two properties that say an execution knob must leave
# every answer bit-identical: a fault profile with rate 0, and any
# execution-worker count (adaptive answers and n-ary plans alike).
transparency:
	$(GO) test ./internal/join/ -run TestZeroRateFaultTransparency -count=1
	$(GO) test . -run TestRunExecWorkersIdenticalOutcome -count=1

# fuzz runs every Fuzz* target of the root module for FUZZTIME each (plain
# `go test` runs only their seed corpora). go test -fuzz takes one target
# per call, so each target gets its own. A failing input is written under
# the package's testdata/fuzz and fails the target.
FUZZTIME ?= 10s
fuzz:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$dir/*_test.go 2>/dev/null); do \
			echo "$(GO) test -run '^$$' -fuzz '^$$target$$' -fuzztime $(FUZZTIME) $$pkg"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# api-check diffs the exported surface of the root joinopt package against
# the committed API.txt; any drift fails the gate until the change is
# reviewed and API.txt regenerated with api-update.
api-check:
	$(GO) run ./cmd/apicheck -dir . -check API.txt

api-update:
	$(GO) run ./cmd/apicheck -dir . -write API.txt

# bench-enum smokes the DP join-tree enumerator benchmark (k=2..5 query
# graphs): a handful of iterations to catch pathological plan-space blowups
# in the pre-merge gate, not to produce stable numbers.
bench-enum:
	$(GO) test -run '^$$' -bench 'BenchmarkNaryEnumerator' -benchtime 3x ./internal/optimizer/

# serve-smoke boots the real joinoptd binary on a random port, drives one
# adaptive job end to end over HTTP (submit, event stream, result, metrics
# scrape), then SIGTERMs it and requires a clean drain.
serve-smoke:
	$(GO) test ./cmd/joinoptd -run TestServeSmoke -count=1 -v

# crash-smoke is the kill-and-recover harness: boot joinoptd with a state
# dir, SIGKILL it mid-run with one job executing and one queued, restart it
# against the same directory, and require both jobs to finish with the
# recovery counters, warmed extraction cache, and NDJSON event streams all
# verified over HTTP.
crash-smoke:
	$(GO) test ./cmd/joinoptd -run TestCrashSmoke -count=1 -v

# cluster-smoke is the fleet kill-and-migrate harness: boot two joinoptd
# replicas as a cluster, submit one adaptive job through the replica that
# does NOT own its workload (proving consistent-hash forwarding), SIGKILL
# the owner mid-run, and require the survivor to adopt the replicated
# checkpoint and finish the job bit-identical to a single-node run, with
# the migration visible in joinopt_cluster_migrations_total.
cluster-smoke:
	$(GO) test ./cmd/joinoptd -run TestClusterSmoke -count=1 -v

# bench runs the optimizer plan-space benchmarks: sequential vs parallel
# Choose on the 256-plan space, and ChooseNary on a four-relation chain.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkChoose' -benchtime 10x .

# bench-json runs the pipelined-executor benchmarks (all three algorithms,
# sequential vs 4 workers, and the binary + n-ary plan-space sweeps) and
# captures the results as BENCH_exec.json. Each benchmark runs for a real
# duration, three times; benchjson records the median, so the committed
# numbers are not 3-iteration noise. bench-json-check verifies the recorded speedups; on a single-CPU
# machine the check is skipped (overlap cannot help there) with a loud
# warning — benchjson refuses single-CPU artifacts by default, so the local
# flow passes -allow-single-cpu explicitly; CI runs the same check with
# -require-parallel, which fails instead of skipping.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkExec(IDJN|OIJN|ZGJN)8k|BenchmarkChoosePlanSpace8k|BenchmarkChooseNary' -benchtime 1s -count 3 . \
		| $(GO) run ./cmd/benchjson -o BENCH_exec.json
	@cat BENCH_exec.json

bench-json-check: bench-json
	@if [ "$$(nproc 2>/dev/null || echo 1)" -lt 2 ]; then \
		echo "================================================================"; \
		echo "WARNING: this machine has fewer than 2 CPUs."; \
		echo "The seq-vs-workers4 speedup gates below will be SKIPPED,"; \
		echo "not passed: a parallel speedup is impossible"; \
		echo "on one core. Run 'make bench-json-check' on a multi-core"; \
		echo "machine (or rely on CI, which enforces the gates with"; \
		echo "-require-parallel) before trusting the recorded numbers."; \
		echo "================================================================"; \
	fi
	$(GO) run ./cmd/benchjson -check BENCH_exec.json -allow-single-cpu

# bench-overhead compares a full executor run with observability detached
# (the nil fast path), with a ring trace + metrics attached, and with an
# NDJSON stream — the nil variant must stay within 2% of the plain
# BenchmarkIDJNFullScan baseline (DESIGN.md §5's overhead budget).
bench-overhead:
	$(GO) test -run '^$$' -bench 'BenchmarkIDJNFullScan' -benchtime 20x -count 3 .
