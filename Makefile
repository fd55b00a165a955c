GO ?= go

.PHONY: check fmt vet lint lint-fix-hints build test race alloc-pins bench-smoke bench-json bench-compare perfbench-compare bench-parallel perfbench-check fuzz-smoke api-check api-update leakcheck

# check is the CI gate: formatting, static analysis (vet for linux, darwin
# and windows, plus nexuslint), build, the full race suite, the allocation
# pins without the race detector, the API-stability gate, the transport
# goroutine-leak gate, a benchmark smoke so no benchmark can bit-rot, and
# vet + tests of the perfbench module.
check: fmt vet lint build race alloc-pins api-check leakcheck bench-smoke perfbench-check

# fmt fails when gofmt would reformat any Go file.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l:" $$files >&2; exit 1; fi

# lint runs nexuslint, the repo-specific analyzer suite: the lock-order
# DAG (internal/analysis/lockorder.txt), the errno taxonomy on ABI error
# surfaces, //nexus:noalloc warm paths, and atomic/plain access mixing.
# See DESIGN.md "Static analysis (nexuslint)".
lint:
	$(GO) run ./cmd/nexuslint ./...

# lint-fix-hints reruns nexuslint verbosely: each finding carries the
# held-lock chain or noalloc call path that produced it.
lint-fix-hints:
	$(GO) run ./cmd/nexuslint -v ./...

# leakcheck pins the transport's goroutine footprint: 1024 idle
# connections, over loopback and over TCP, must cost exactly one goroutine
# per connection end, and a thousand dial/call/close cycles over each must
# return the process to its baseline count.
leakcheck:
	$(GO) test -race -timeout $(TEST_TIMEOUT) -run 'TestTransportGoroutineFootprint|TestLoopbackTransportStress|TestTCPTransportStress' ./internal/kernel

# api-check regenerates the public-ABI listing (root package +
# internal/kernel) and fails when it drifts from the committed api.txt —
# the ABI changes deliberately, via `make api-update`, or not at all.
api-check:
	@$(GO) run ./cmd/apidump > .api.txt.gen; \
	if ! diff -u api.txt .api.txt.gen; then \
		rm -f .api.txt.gen; \
		echo "api-check: public ABI drifted; run 'make api-update' and commit api.txt" >&2; \
		exit 1; \
	fi; rm -f .api.txt.gen

# api-update rewrites the committed ABI listing after a deliberate change.
api-update:
	$(GO) run ./cmd/apidump > api.txt

# vet also type-checks the non-Linux files, which no other target builds.
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./...
	GOOS=windows $(GO) vet ./...

# perfbench-check vets and tests the perfbench module (the repository
# benchmark), which the root module's ./... patterns do not reach.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

build:
	$(GO) build ./...

# TEST_TIMEOUT sits well below go test's 10-minute default, so a hang
# fails within minutes and prints every goroutine's stack.
TEST_TIMEOUT ?= 5m

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

race:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./...

# alloc-pins runs every allocation pin (TestAlloc*) without the race
# detector. Under -race the runtime randomizes sync.Pool reuse, so the pins
# on pooled paths skip themselves in the race suite; this is where they
# run.
alloc-pins:
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^TestAlloc' ./...

# bench-smoke runs every benchmark in the root package and the ledger once
# (-benchtime=1x), every BENCH row and paper exhibit included, so bench
# code cannot rot; use bench-json and bench-parallel for measurements.
bench-smoke:
	$(GO) test -run=XXX -bench=. -benchtime=1x -timeout $(TEST_TIMEOUT) . ./internal/ledger

# bench-json regenerates BENCH_net.json, BENCH_abi.json, BENCH_proof.json
# and BENCH_ledger.json: five runs of each recorded benchmark, folded by
# cmd/experiments into the median, min and max of every unit, under a
# header naming the machine, the Go version and the commit (go run stamps
# the revision only with -buildvcs=true). Before it replaces a file,
# cmd/experiments prints every row and unit whose new median lies outside
# the file's min–max.
BENCH_JSON_RUN = $(GO) test -run=XXX -bench='^Benchmark(Net|ABI|Proof|Ledger)$$' -benchmem -count=5 -timeout=30m . ./internal/ledger

bench-json:
	$(BENCH_JSON_RUN) | $(GO) run -buildvcs=true ./cmd/experiments

# bench-compare measures the working tree against HEAD on this machine. It
# builds the bench-json test binaries (root package and internal/ledger)
# from HEAD, exported with git archive into a temporary directory, and from
# the working tree; runs the two sides alternately, five runs of one count
# each, flipping which side goes first every round; and has cmd/experiments
# fold HEAD's runs into a temporary directory first and the working tree's
# second, so its report lists the rows and units whose working-tree median
# lies outside HEAD's min–max. The committed BENCH files stay untouched.
# It compares uncommitted work, so run it before committing.
bench-compare:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/head" "$$tmp/out" && git archive HEAD | tar -x -C "$$tmp/head" && \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments && \
	for side in head work; do \
		src=$$(pwd); [ $$side = work ] || src=$$tmp/head; \
		(cd "$$src" && $(GO) test -c -o "$$tmp/$$side-root.test" . && \
			$(GO) test -c -o "$$tmp/$$side-ledger.test" ./internal/ledger) || exit 1; \
	done && \
	for round in 1 2 3 4 5; do \
		order="head work"; [ $$((round % 2)) = 1 ] || order="work head"; \
		for side in $$order; do \
			src=$$(pwd); [ $$side = work ] || src=$$tmp/head; \
			echo "bench-compare: round $$round, $$side" >&2; \
			for pkg in root ledger; do \
				dir=$$src; [ $$pkg = root ] || dir=$$src/internal/ledger; \
				(cd "$$dir" && "$$tmp/$$side-$$pkg.test" -test.run=XXX \
					-test.bench='^Benchmark(Net|ABI|Proof|Ledger)$$' -test.benchmem \
					-test.count=1 -test.timeout=30m) >> "$$tmp/$$side.txt" || exit 1; \
			done; \
		done; \
	done && \
	cd "$$tmp/out" && ../experiments < ../head.txt && ../experiments < ../work.txt

# perfbench-compare runs the repository benchmark (perfbench/run.sh) on
# HEAD and on the working tree, alternately, on this machine: HEAD is
# exported with git archive into a temporary directory, every pair runs
# one seed of PERF_SEEDS on both trees for BENCHMARK.json's run_seconds,
# flipping which goes first each pair, and each tree builds into its own
# temporary CARGO_TARGET_DIR. cmd/perfcompare then prints every run's
# end-to-end metrics and failed count, and per tree each end-to-end
# metric's median, quartiles and min–max and the pairs the working tree
# won, with the per-layer counts' medians after them. A run that fails
# is reported on stderr and listed with no result, and the pairs after it
# still run. It changes no committed file, and compares uncommitted work,
# so run it before committing. For example:
#   make perfbench-compare PERF_WORKLOAD=local-authz-mix PERF_SEEDS="1 2 3 4 5"
PERF_WORKLOAD ?= fauxbook-archive-tcp
PERF_SEEDS ?= 1 2 3 4 5 6 7 8 9 10

perfbench-compare:
	@secs=$$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json) && [ -n "$$secs" ] && \
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/head" "$$tmp/runs" && git archive HEAD | tar -x -C "$$tmp/head" && \
	$(GO) build -o "$$tmp/perfcompare" ./cmd/perfcompare && \
	pair=0 && for seed in $(PERF_SEEDS); do \
		pair=$$((pair + 1)); \
		order="head work"; [ $$((pair % 2)) = 1 ] || order="work head"; \
		for side in $$order; do \
			src=$$(pwd); [ $$side = work ] || src=$$tmp/head; \
			echo "perfbench-compare: pair $$pair, seed $$seed, $$side" >&2; \
			(cd "$$src" && CARGO_TARGET_DIR="$$tmp/build-$$side" bash perfbench/run.sh \
				--workload $(PERF_WORKLOAD) --seed $$seed --seconds $$secs --trace 0) \
				> "$$(printf '%s/runs/%02d-%s-%s.txt' "$$tmp" $$pair $$seed $$side)" || \
				echo "perfbench-compare: pair $$pair, seed $$seed, $$side failed (exit $$?)" >&2; \
		done; \
	done && \
	echo "perfbench-compare: $(PERF_WORKLOAD), $$pair pairs of $$secs s" && \
	"$$tmp/perfcompare" "$$tmp/runs"

# bench-parallel measures multi-core scaling of the authorization fast
# paths: one table row per GOMAXPROCS.
bench-parallel:
	$(GO) test -run=XXX -bench=Parallel -benchmem -cpu=1,2,4,8 . | $(GO) run ./cmd/experiments

# fuzz-smoke runs each fuzzer briefly; CI-friendly bound.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run=XXX -fuzz=FuzzParseFormula -fuzztime=$(FUZZTIME) ./internal/nal
	$(GO) test -run=XXX -fuzz=FuzzParsePrincipal -fuzztime=$(FUZZTIME) ./internal/nal
	$(GO) test -run=XXX -fuzz=FuzzGoalKey -fuzztime=$(FUZZTIME) ./internal/nal
	$(GO) test -run=XXX -fuzz=FuzzMsgWire -fuzztime=$(FUZZTIME) ./internal/kernel
	$(GO) test -run=XXX -fuzz=FuzzRemoteSubmitFrame -fuzztime=$(FUZZTIME) ./internal/kernel
	$(GO) test -run=XXX -fuzz=FuzzHandleTable -fuzztime=$(FUZZTIME) ./internal/kernel
	$(GO) test -run=XXX -fuzz=FuzzParseProof -fuzztime=$(FUZZTIME) ./internal/nal/proof
	$(GO) test -run=XXX -fuzz=FuzzWireFormula -fuzztime=$(FUZZTIME) ./internal/nal
	$(GO) test -run=XXX -fuzz=FuzzWireCredential -fuzztime=$(FUZZTIME) ./internal/cert
	$(GO) test -run=XXX -fuzz=FuzzWALRecovery -fuzztime=$(FUZZTIME) ./internal/ledger
	$(GO) test -run=XXX -fuzz=FuzzWallBlob -fuzztime=$(FUZZTIME) ./internal/fauxbook
	$(GO) test -run=XXX -fuzz=FuzzFrameSplit -fuzztime=$(FUZZTIME) ./internal/kernel
