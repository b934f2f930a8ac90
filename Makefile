# Pre-merge checks for symcluster. `make check` is the documented
# gate: formatting, vet, the registry and logging lints, a full build,
# the benchmark module's vet and tests, the short test suite, the race
# detector over the whole module, the cross step (an arm64 build, and
# the kernels' suites with the assembly tagged out), and bounded fuzz passes of the edge-list reader, its line
# parser, the binary CSR decoder, the dense scan's two bodies, the WAL
# frame scanner and the cluster-request decoder. The long statistical experiments (minutes per seed) run
# only via `make test-long`.

GO ?= go
FUZZTIME ?= 5s
SOAK_SECONDS ?= 60

# Stamped into internal/obs.Version: the symclusterd_build_info metric,
# the /healthz body, startup logs, and `expgen -version` all report it.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -X symcluster/internal/obs.Version=$(VERSION)

.PHONY: check fmt vet lint build benchmod cross test race fuzz crash cluster soak test-long bench kernel-bench loc

check: fmt vet lint build benchmod cross test race crash cluster soak fuzz
	@echo "check: ok"

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The source-hygiene rules — registry-only switches over methods and
# algorithms, slog-only logging, job state reaching disk only through
# internal/jobstore, mmap only in internal/csr, flock only in
# internal/jobstore and jobstore.TryOpen only in adoption.go, peer traffic and
# propagation headers only through the cluster client,
# context.Background() only in package main and internal/server/bootctx.go, no exported F
# beside an exported FCtx, no production call to the sparse-product oracle
# or (bench/ aside) to the one-term self-product, no Workers field reachable from pipeline.SymOptions, no time.Now or
# time.Since in internal/pipeline (a stage is timed by its span), no container/heap
# and no sync.Pool in a clustering kernel (scratch waits in a
# multilevel.FreeList), encoding/csv only in internal/experiments/table.go
# (an experiment's CSV is its Table's), no symcluster import in internal/matrix (a product's
# tally is its return value), multilevel.CoarsenCtx called only by
# internal/multilevel and MLR-MCL (Graclus and Metis go through the cache
# entry's hierarchy memo), a pipeline stage run only by pipeline.Run.Execute
# and the named single-stage helpers, and in internal/server Retry-After
# set only by refuse, csr.Open called only by openGraphFile, ring.Owner
# only by ownerOf, Pool.Reserve only by admit and jobs.Admit only by a
# caller holding admit's ticket, and DESIGN.md and README.md under their
# line ceilings — are one Go test over the parsed packages
# (lint_test.go), so plain `go test ./...` enforces them too; each
# failure names the rule and its DESIGN.md section.
lint:
	$(GO) test -count=1 -run '^TestSourceLints$$' .

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

# The benchmark is its own module (bench/go.mod) and compiles against
# internal/pipeline and the library root, which no other step builds it
# against: vet it and run its tests, the golden digests among them.
benchmod:
	cd bench && $(GO) vet . && $(GO) test ./...

# The targets the assembly does not serve: everything builds for arm64
# and internal/matrix vets there (the stub's signature against the
# routine's), and the three packages whose oracle suites hold the engine
# to its bits pass with the routine tagged out — the Go loop alone, as
# on every GOARCH but amd64 and every amd64 without AVX2 (DESIGN.md §15,
# "Collect"). The module also builds where the journal lock has no flock
# (windows, solaris, aix), whose jobstore takes no lock and never adopts
# (DESIGN.md §14).
cross:
	GOARCH=arm64 $(GO) build ./...
	GOOS=windows $(GO) build ./...
	GOOS=solaris $(GO) build ./...
	GOOS=aix GOARCH=ppc64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/matrix
	$(GO) test -tags purego ./internal/matrix ./internal/core ./internal/mcl

test:
	$(GO) test -short ./...

# The race detector multiplies CPU time ~10x, and the experiments
# package's statistical sweeps are minutes of dense kernel work even in
# short mode — on small machines the suite legitimately needs far more
# than go test's default 10m package timeout. The bound exists to catch
# hangs, not to race the hardware. The GOMAXPROCS matrices of the
# derived-worker kernels (core's TestDerivedWorkersMatchOracle and
# TestProductCtxCancelledMidProduct, mcl's TestFusedIterateMatchesOracle)
# are not short-gated, so this is where they run under the detector.
race:
	$(GO) test -race -short -timeout 3600s ./...

# The kill-restart e2e: SIGKILL the daemon mid-MCL-iteration, restart
# on the same -data-dir, and require the job to resume from its last
# WAL checkpoint with the same answer an uninterrupted run gives
# (DESIGN.md §12). Runs under -race with a per-iteration checkpoint so
# the recovery path is exercised on every pre-merge check.
crash:
	$(GO) test -race -short -run 'TestCrashRecovery' ./internal/server

# The two-node e2e pair: failover (boot a pair of daemons sharing a
# durable root, SIGKILL whichever node owns the running job, and
# require the survivor to adopt the dead node's WAL and finish the job
# from its last checkpoint — with the adopted trace linking back to the
# dead run's trace id, DESIGN.md §14) and observability (a job proxied
# between the nodes yields one stitched span tree retrievable from
# either node, nonzero persisted resource stats, and a federated
# status report that degrades — not blocks — when a peer is killed,
# DESIGN.md §16), plus the route table: every public route × {owner is
# this node, a live peer, a dead peer, already forwarded} served here /
# one hop away / refused with 503 + Retry-After (DESIGN.md §14), the
# adoption table: an owner whose process lives is never adopted, a dead
# one is adopted, and so is one that dies a second time (DESIGN.md §14,
# "Ownership transfer"), and the idempotency pin: a keyed submission
# whose hop to the owner fails is journaled nowhere, and its retries
# name one job, on the owner.
cluster:
	$(GO) test -race -run 'TestClusterFailoverResume|TestClusterObservability|TestRouteTable|TestClusterAdoptsOnlyFromExitedOwner|TestIdempotencyKeyStaysWithRingOwner' ./internal/server

# The chaos soak (DESIGN.md §17): a real two-node cluster built with
# -race, driven by randomized fault schedules (injected errors and
# delays across the proxy, WAL, kernel, CSR, and pool sites)
# interleaved with SIGKILL/restart, looping fresh episodes until
# SOAK_SECONDS (default 60) elapses. Every episode checks the survival
# invariants: no accepted job lost or duplicated, completed
# assignments bit-identical to a fault-free control, the WAL replaying
# clean after a cold double-kill restart, and the survivor's
# goroutines and heap settling back to baseline. Every third episode,
# from the second on, is an overload episode instead: open-loop arrivals
# at 3x the measured service rate against a two-place queue, requiring
# that 503 fires and is the only refusal, that a refused submission
# leaves no job behind, and that every accepted one ends done (it logs
# goodput, refused share, p99 of admitted work and hop 503s).
# SOAK_SEED pins a schedule for reproduction; the test logs the seed it
# used. -count=1: a repeated run is a new trial, never go test's cached
# result.
soak:
	SOAK_SECONDS=$(SOAK_SECONDS) $(GO) test -count=1 -race -run TestSoak -v \
		-timeout $$(( $(SOAK_SECONDS) + 840 ))s ./internal/soak

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzParseEdgeLine -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/csr
	$(GO) test -run='^$$' -fuzz=FuzzScanSpan -fuzztime=$(FUZZTIME) ./internal/matrix
	$(GO) test -run='^$$' -fuzz=FuzzScanFrames -fuzztime=$(FUZZTIME) ./internal/jobstore
	$(GO) test -run='^$$' -fuzz=FuzzClusterRequest -fuzztime=$(FUZZTIME) ./internal/server

# The repo benchmark (BENCHMARK.json, bench/README.md): one 30-second
# workload against an in-process symclusterd per invocation; arguments
# pass through, e.g. `bash bench/run.sh --workload mcl_hot`.
bench:
	bash bench/run.sh

# The kernels on their own, in a few minutes: one accumulator row in
# each mode around the dense/marked crossover (denseSpanShare in
# internal/matrix/engine.go is read off BenchmarkAccumulatorRow), the
# dense scan alone in each of its bodies, the top-k selection, the two
# requests the sparse product carries, sym_cold's symmetrization (with
# its parse, and its degree-discounted product alone) and the coarsening
# of its clusterer, an MLR-MCL solve through its
# levels (projection and a regularizer per level), what registering sym_cold's
# upload costs before any of that (the parse alone, and with the
# fingerprint and the symmetric-link count), and the
# multilevel clusterers on the benchmark's own inputs (serve_mixed's
# Graclus request building its hierarchy and, per symmetrization, served
# from a kept one, its Metis request the same two ways, sym_cold's
# cluster stage), each
# without the server around it, at one core and two (DESIGN.md §15) — and one
# serve_mixed request with the server around it, two nodes in the
# process, sent to the graph's owner (its hierarchy kept, and refused)
# and to the node that must forward it (DESIGN.md §14). Every row reports
# its bytes and allocations per op.
kernel-bench:
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkAccumulatorRow|BenchmarkCollectDense|BenchmarkSelectTopK' -cpu 1,2 -count 5 ./internal/matrix
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkMCLHot$$|BenchmarkMLRMCL$$' -cpu 1,2 -count 5 ./internal/mcl
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkSymCold$$|BenchmarkSymColdProduct$$' -cpu 1,2 -count 5 ./internal/core
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkColdCoarsen$$' -cpu 1,2 -count 5 ./internal/multilevel
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkReadEdgeList$$|BenchmarkRegister$$' -cpu 1,2 -count 5 ./internal/graph
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkServeGraclus$$|BenchmarkServeGraclusKept$$|BenchmarkColdGraclus$$' -cpu 1,2 -count 5 ./internal/graclus
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkServeMetis$$|BenchmarkServeMetisKept$$' -cpu 1,2 -count 5 ./internal/metis
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkRoutedCluster$$' -cpu 2 -count 5 ./internal/server

test-long:
	$(GO) test ./...

# The line budget of ROADMAP item 10: non-test Go outside the benchmark
# module (and the benchmark's build directory).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l
