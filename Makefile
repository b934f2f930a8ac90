# Pre-merge checks for symcluster. `make check` is the documented
# gate: formatting, vet, the registry and logging lints, a full build,
# the short test suite, the race detector over the whole module, the
# cross step (an arm64 build, and the kernels' suites with the assembly
# tagged out), and bounded fuzz passes of the edge-list reader, its line
# parser, the binary CSR decoder, the dense scan's two bodies and the WAL
# frame scanner. The long statistical experiments (minutes per seed) run
# only via `make test-long`.

GO ?= go
FUZZTIME ?= 5s
SOAK_SECONDS ?= 60

# Stamped into internal/obs.Version: the symclusterd_build_info metric,
# the /healthz body, startup logs, and `expgen -version` all report it.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -X symcluster/internal/obs.Version=$(VERSION)

.PHONY: check fmt vet lint build cross test race fuzz crash cluster soak test-long bench kernel-bench

check: fmt vet lint build cross test race crash cluster soak fuzz
	@echo "check: ok"

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The source-hygiene rules — registry-only switches over methods and
# algorithms, slog-only logging, job state reaching disk only through
# internal/jobstore, mmap only in internal/csr, peer traffic and
# propagation headers only through the cluster client, no stray
# context.Background(), no production call to the sparse-product oracle,
# no Workers field reachable from pipeline.SymOptions, no container/heap
# in a clustering kernel, multilevel.CoarsenCtx called only by the
# substrates that own their hierarchy, a pipeline stage run only by pipeline.Run.Execute
# and the named single-stage helpers, and in internal/server Retry-After
# set only by refuse, csr.Open called only by openGraphFile, ring.Owner
# only by ownerOf, Pool.Reserve only by admit and jobs.Admit only by a
# caller holding admit's ticket — are one Go test over the parsed packages
# (lint_test.go), so plain `go test ./...` enforces them too; each
# failure names the rule and its DESIGN.md section.
lint:
	$(GO) test -count=1 -run '^TestSourceLints$$' .

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

# The targets the assembly does not serve: everything builds for arm64
# and internal/matrix vets there (the stub's signature against the
# routine's), and the three packages whose oracle suites hold the engine
# to its bits pass with the routine tagged out — the Go loop alone, as
# on every GOARCH but amd64 and every amd64 without AVX2 (DESIGN.md §15,
# "Collect").
cross:
	GOARCH=arm64 $(GO) build ./...
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
# this node, a healthy peer, a dead peer, already forwarded} served
# here / one hop away / refused with 503 + Retry-After (DESIGN.md §14).
cluster:
	$(GO) test -race -run 'TestClusterFailoverResume|TestClusterObservability|TestRouteTable' ./internal/server

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
# that 429 and 503 both fire, that a refused submission leaves no job
# behind, and that every accepted one ends done (it logs goodput, refused
# share and p99 of admitted work). SOAK_SEED pins a schedule for
# reproduction; the test logs the seed it used.
soak:
	SOAK_SECONDS=$(SOAK_SECONDS) $(GO) test -race -run TestSoak -v \
		-timeout $$(( $(SOAK_SECONDS) + 840 ))s ./internal/soak

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzParseEdgeLine -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/csr
	$(GO) test -run='^$$' -fuzz=FuzzScanSpan -fuzztime=$(FUZZTIME) ./internal/matrix
	$(GO) test -run='^$$' -fuzz=FuzzScanFrames -fuzztime=$(FUZZTIME) ./internal/jobstore

# The repo benchmark (BENCHMARK.json, bench/README.md): one 30-second
# workload against an in-process symclusterd per invocation; arguments
# pass through, e.g. `bash bench/run.sh --workload mcl_hot`.
bench:
	bash bench/run.sh

# The kernels on their own, in a few minutes: one accumulator row in
# each mode around the dense/marked crossover (denseSpanShare in
# internal/matrix/engine.go is read off BenchmarkAccumulatorRow), the
# dense scan alone in each of its bodies, the top-k selection, the two
# requests the sparse product carries, what registering sym_cold's
# upload costs before any of that (the parse alone, and with the
# fingerprint and the symmetric-link count), and the
# multilevel clusterers on the benchmark's own inputs (serve_mixed's
# Graclus request building its hierarchy and, per symmetrization, served
# from a kept one, its Metis request, sym_cold's cluster stage), each
# without the server around it, at one core and two (DESIGN.md §15) — and one
# serve_mixed request with the server around it, two nodes in the
# process, sent to the graph's owner (its hierarchy kept, and refused)
# and to the node that must forward it (DESIGN.md §14).
kernel-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkAccumulatorRow|BenchmarkCollectDense|BenchmarkSelectTopK' -cpu 1,2 -count 5 ./internal/matrix
	$(GO) test -run '^$$' -bench 'BenchmarkMCLHot$$' -cpu 1,2 -count 5 ./internal/mcl
	$(GO) test -run '^$$' -bench 'BenchmarkSymCold$$' -cpu 1,2 -count 5 ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkReadEdgeList$$|BenchmarkRegister$$' -cpu 1,2 -count 5 ./internal/graph
	$(GO) test -run '^$$' -bench 'BenchmarkServeGraclus$$|BenchmarkServeGraclusKept$$|BenchmarkColdGraclus$$' -cpu 1,2 -count 5 ./internal/graclus
	$(GO) test -run '^$$' -bench 'BenchmarkServeMetis$$' -cpu 1,2 -count 5 ./internal/metis
	$(GO) test -run '^$$' -bench 'BenchmarkRoutedCluster$$' -cpu 2 -count 5 ./internal/server

test-long:
	$(GO) test ./...
