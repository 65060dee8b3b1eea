# Targets mirror .github/workflows/ci.yml one-to-one so a green `make ci`
# locally means a green pipeline.

GO ?= go
STATICCHECK ?= staticcheck

.PHONY: all build vet fmt staticcheck lint test determinism bench-module cover race fuzz bench telemetry-smoke server-smoke profile clean ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails (and lists the files) if anything is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The CI lint job pins staticcheck (honnef.co/go/tools) via go install;
# locally it runs when the binary is on PATH and is skipped otherwise, so
# `make ci` stays green on machines without network access.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins and runs it)"; \
	fi

lint: vet fmt staticcheck

test:
	$(GO) test -shuffle=on ./...

# The CI build job's determinism step: the engines that promise
# reproducible results, plus relaxbp's seeded runs and its oracle check,
# five times each at 1, 2 and 4 procs (a result that depends on worker
# timing rarely shows at -cpu 1).
determinism:
	$(GO) test -count=5 -cpu 1,2,4 -run 'Determinis|Reproducible|FixpointMatchesOracle' ./internal/poolbp ./internal/ompbp ./internal/cudabp ./internal/relaxbp ./cmd/credobench

# The CI build job's benchmark-module step: servebench is a nested
# module, so the root ./... skips it, yet it compiles against the
# exported serve, graph, bp, kernel and mtxbp calls.
bench-module:
	cd servebench && $(GO) vet ./... && $(GO) test ./...

# The CI coverage job: full test run with a coverage profile and the
# 84.0% floor (measured 85.2% when the gate was added).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t >= 84.0) ? 0 : 1 }' \
		|| { echo "coverage $$total% is below the 84.0% floor"; exit 1; }

# The CI race job: the concurrent engines, the kernel layer, the
# telemetry sinks, the parallel ingest path and the serving layer,
# twice, under the race detector; then the serving tests that race
# queries, batched flushes and updates on one resident, twenty times.
race:
	$(GO) test -race -count=2 -timeout 30m ./internal/poolbp/ ./internal/ompbp/ ./internal/cudabp/ ./internal/bp/ ./internal/relaxbp/ ./internal/enginetest/ ./internal/kernel/ ./internal/telemetry/ ./internal/mtxbp/ ./internal/graph/ ./internal/serve/
	$(GO) test -race -count=20 -run 'Concurrent|Overlap|Update' ./internal/serve

# The CI fuzz-smoke job: 20s on each parser fuzz target. The ingest
# differential runs as its own invocation — -fuzz takes one target, and
# FuzzRead does not match FuzzParallelRead.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=20s ./internal/bif/
	$(GO) test -fuzz=FuzzRead -fuzztime=20s ./internal/mtxbp/
	$(GO) test -fuzz=FuzzParallelRead -fuzztime=20s ./internal/mtxbp/
	$(GO) test -fuzz=FuzzDampedKernel -fuzztime=20s ./internal/kernel/
	$(GO) test -fuzz=FuzzQueryDecode -fuzztime=20s ./internal/serve/
	$(GO) test -fuzz=FuzzAnswerEncoding -fuzztime=20s ./internal/serve/
	$(GO) test -fuzz=FuzzBatchLaneEquivalence -fuzztime=20s ./internal/bp/
	$(GO) test -fuzz=FuzzDeltaApply -fuzztime=20s ./internal/enginetest/

# The CI bench-smoke job: one iteration of every benchmark, output kept,
# plus the kernel micro-benchmarks with allocation stats and the
# bit-identity-verified ingest experiment at the CI tier.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... | tee bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkKernels/micro' -benchtime 0.1s -benchmem ./internal/kernel/ | tee kernel-bench.txt
	$(GO) test -run '^$$' -bench BenchmarkProbeOverhead -benchtime 0.1s -benchmem ./internal/telemetry/ | tee probe-bench.txt
	$(GO) test -run '^$$' -bench BenchmarkTraceOverhead -benchtime 0.1s -benchmem ./internal/serve/ | tee trace-bench.txt
	$(GO) run ./cmd/credobench -exp ingest -tier ci -o ingest.txt
	$(GO) run ./cmd/credobench -exp robust -tier ci -o robust.txt
	$(GO) run ./cmd/credobench -exp batch -tier ci -o batch.txt
	$(GO) run ./cmd/credobench -exp delta -tier ci -o delta.txt

# The CI telemetry-smoke step: run the sprinkler example with the probe
# layer on and assert the JSONL event stream is well-formed and framed.
telemetry-smoke:
	$(GO) run ./cmd/credo -bif internal/bif/testdata/sprinkler.bif -mrf \
		-telemetry -trace-out telemetry.jsonl
	jq -es 'length > 0 and (.[0].kind == "run_start") and (.[-1].kind == "run_end")' telemetry.jsonl

# The CI server-smoke job: boot the credoserved daemon with the
# sprinkler network, drive cold and warm queries and the ops sidecar
# with curl+jq, and validate the JSONL telemetry trace.
server-smoke:
	./scripts/server_smoke.sh

# CPU-profile the million-edge pool benchmark; open with
# `go tool pprof cpu.pprof` (the -http flag on credo serves live
# /debug/pprof endpoints for in-flight runs instead).
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkMillionEdge' -benchtime 1x \
		-cpuprofile cpu.pprof -o poolbp.test ./internal/poolbp/
	@echo "wrote cpu.pprof — inspect with: $(GO) tool pprof poolbp.test cpu.pprof"

# Remove every artifact the smoke and bench targets leave behind.
clean:
	rm -f bench.txt kernel-bench.txt probe-bench.txt trace-bench.txt \
		ingest.txt robust.txt batch.txt delta.txt \
		results_ci.txt coverage.out \
		telemetry.jsonl server-smoke.jsonl server-smoke.log \
		server-smoke-flight.json credoserved.smoke \
		cpu.pprof poolbp.test

ci: build lint test determinism bench-module cover race fuzz bench telemetry-smoke server-smoke
