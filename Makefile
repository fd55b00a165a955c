GO ?= go

.PHONY: check vet lint lint-fix-hints build test race bench-smoke bench-parallel fuzz-smoke api-check api-update leakcheck

# check is the CI gate: static analysis (vet + nexuslint), build, the full
# race suite, the API-stability gate, the transport goroutine-leak gate,
# and a short benchmark smoke so the parallel and batch benchmarks cannot
# bit-rot.
check: vet lint build race api-check leakcheck bench-smoke

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

# leakcheck pins the event-driven transport's goroutine footprint: 1024
# idle connections must cost O(worker-pool) goroutines, and a thousand
# dial/call/close cycles, over loopback and over TCP, must return the
# process to its baseline count.
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

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# TEST_TIMEOUT sits well below go test's 10-minute default, so a hang
# fails within minutes and prints every goroutine's stack.
TEST_TIMEOUT ?= 5m

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

race:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./...

# bench-smoke runs every benchmark in the root package and the ledger once
# (-benchtime=1x) so bench code cannot rot; use bench-parallel (or go test
# -bench with a real benchtime) for measurements.
bench-smoke:
	$(GO) test -run=XXX -bench=. -benchtime=1x . ./internal/ledger

# bench-parallel measures multi-core scaling of the authorization fast
# path (compare the -cpu=1 and -cpu=4 lines).
bench-parallel:
	$(GO) test -run=XXX -bench=Parallel -cpu=1,4 .

# fuzz-smoke runs each fuzzer briefly; CI-friendly bound.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run=XXX -fuzz=FuzzParseFormula -fuzztime=$(FUZZTIME) ./internal/nal
	$(GO) test -run=XXX -fuzz=FuzzParsePrincipal -fuzztime=$(FUZZTIME) ./internal/nal
	$(GO) test -run=XXX -fuzz=FuzzGoalKey -fuzztime=$(FUZZTIME) ./internal/nal
	$(GO) test -run=XXX -fuzz=FuzzMsgWire -fuzztime=$(FUZZTIME) ./internal/kernel
	$(GO) test -run=XXX -fuzz=FuzzBatchWire -fuzztime=$(FUZZTIME) ./internal/kernel
	$(GO) test -run=XXX -fuzz=FuzzRemoteSubmitFrame -fuzztime=$(FUZZTIME) ./internal/kernel
	$(GO) test -run=XXX -fuzz=FuzzHandleTable -fuzztime=$(FUZZTIME) ./internal/kernel
	$(GO) test -run=XXX -fuzz=FuzzParseProof -fuzztime=$(FUZZTIME) ./internal/nal/proof
	$(GO) test -run=XXX -fuzz=FuzzWireFormula -fuzztime=$(FUZZTIME) ./internal/nal
	$(GO) test -run=XXX -fuzz=FuzzWireCredential -fuzztime=$(FUZZTIME) ./internal/cert
	$(GO) test -run=XXX -fuzz=FuzzWALRecovery -fuzztime=$(FUZZTIME) ./internal/ledger
	$(GO) test -run=XXX -fuzz=FuzzWallBlob -fuzztime=$(FUZZTIME) ./internal/fauxbook
	$(GO) test -run=XXX -fuzz=FuzzFrameSplit -fuzztime=$(FUZZTIME) ./internal/kernel
