// Command symclusterd serves the two-stage directed-graph clustering
// pipeline over HTTP: clients register edge lists, then request
// clusterings by symmetrization method and substrate algorithm.
// Symmetrized graphs are cached under a byte budget and compute runs on
// a bounded worker pool; large graphs can be clustered asynchronously
// via jobs. See README.md "Running the server" for the API.
//
// Usage:
//
//	symclusterd [-addr :8080] [-workers N] [-queue N] [-cache-mb MB]
//	            [-max-body-mb MB] [-max-job-mb MB] [-max-queue-mb MB]
//	            [-spill-dir DIR] [-max-spill-mb MB] [-max-resident-mb MB]
//	            [-timeout D] [-job-ttl D] [-upload-ttl D] [-drain-timeout D]
//	            [-data-dir DIR] [-checkpoint-iters N]
//	            [-peers URL,URL,...] [-self URL]
//	            [-probe-interval D] [-peer-fail-threshold N]
//	            [-peer-recover-threshold N] [-proxy-attempts N]
//	            [-proxy-timeout D] [-proxy-max-wait D]
//	            [-breaker-fail-threshold N] [-breaker-cooldown D]
//	            [-retry-budget-ratio F] [-retry-budget-burst F]
//	            [-preload graph.edges]
//	            [-log-format json|text] [-log-level LEVEL]
//	            [-trace-log FILE] [-trace-ring N] [-trace-ring-mb MB]
//	            [-debug-addr ADDR]
//
// SIGINT/SIGTERM trigger graceful shutdown: the listener closes,
// health checks fail, and in-flight work (including async jobs) drains
// up to -drain-timeout.
//
// -max-job-mb is admission control: requests whose estimated working
// set exceeds the budget run out-of-core when the symmetrization
// supports it (operands become memory-mapped files under -spill-dir;
// see README.md "Large graphs"), and are rejected with 413 only when
// the method has no out-of-core kernel or the projected scratch
// footprint exceeds -max-spill-mb. -max-queue-mb is overload shedding:
// once the summed estimates of queued jobs reach it, new clustering
// requests get 429 with Retry-After. -job-ttl expires finished async
// job results.
//
// Durability (see README.md "Durability & retries" and DESIGN.md §12):
// -data-dir journals every async job to a write-ahead log, persists
// uploaded graphs, and checkpoints kernel state every
// -checkpoint-iters iterations, so a crash or preempted drain resumes
// interrupted jobs on the next boot instead of losing them. POST
// /v1/cluster accepts an Idempotency-Key header; retried submissions
// with the same key return the original job.
//
// Clustering (see README.md "Running a cluster" and DESIGN.md §14):
// -peers lists the full static membership (http://host:port, optional
// *weight suffix), -self names this node's own entry. Every node is
// both a shard and a router: graphs live on the peer that consistent
// hashing assigns their fingerprint, and requests landing elsewhere
// are forwarded one hop with retries and backoff. An active health
// checker (-probe-interval, -peer-fail-threshold,
// -peer-recover-threshold) shifts ownership away from dead peers; when
// the cluster shares a durable -data-dir, the elected survivor adopts
// a dead peer's WAL and resumes its jobs from their checkpoints.
// -upload-ttl reaps chunked-upload sessions abandoned by their client.
//
// Overload survival (see README.md "Timeouts, retries, and breakers"
// and DESIGN.md §17): callers stamp their remaining budget on every
// request via the X-Symclusterd-Deadline-Ms header (the CLI's -timeout
// does this; so does every forwarded hop, minus a margin), and the
// server fast-fails work that cannot finish in time with 504 before it
// burns a worker. Outbound calls to each peer sit behind a circuit
// breaker (-breaker-fail-threshold, -breaker-cooldown) that fails fast
// with 503 + Retry-After while open, and retries are governed by a
// token-bucket budget (-retry-budget-ratio, -retry-budget-burst) so
// retry storms cannot amplify an outage.
//
// Observability (see README.md "Observability" and DESIGN.md §11, §16):
// logs are structured (JSON by default; -log-format text for humans),
// every clustering run is traced and exported to the -trace-log JSONL
// file plus an in-memory ring (bounded by -trace-ring traces and
// -trace-ring-mb rendered bytes) served by GET /v1/jobs/{id}/trace,
// and -debug-addr starts a separate listener with net/http/pprof under
// /debug/pprof/ — separate so profiling is never exposed on the
// service port. In cluster mode traces propagate across nodes via a
// traceparent header on every forwarded hop, so a proxied or adopted
// job yields one stitched span tree from any node; every job's
// resource accounting (queue wait, per-stage wall/CPU/allocation,
// spill and checkpoint bytes) is served at GET /v1/jobs/{id}/stats and
// survives restarts in the WAL; and GET /v1/cluster/status federates
// per-node health and key gauges without ever blocking on a dead peer.
//
// The SYMCLUSTER_FAULTS environment variable arms deterministic faults
// at named pipeline sites for chaos drills (see internal/faultinject);
// never set it in production.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	symcluster "symcluster"
	"symcluster/internal/cluster"
	"symcluster/internal/faultinject"
	"symcluster/internal/matrix"
	"symcluster/internal/obs"
	"symcluster/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
	queue := flag.Int("queue", 0, "task queue depth (default 4x workers)")
	cacheMB := flag.Int64("cache-mb", 256, "symmetrization cache budget in MiB")
	maxBodyMB := flag.Int64("max-body-mb", 64, "maximum request body in MiB")
	maxJobMB := flag.Int64("max-job-mb", 4096, "estimated working-set budget per clustering job in MiB; 0 disables admission control")
	maxQueueMB := flag.Int64("max-queue-mb", 0, "summed working-set budget of queued jobs in MiB before shedding with 429; 0 disables")
	spillDir := flag.String("spill-dir", "", "directory for out-of-core scratch (ingest spills, mapped intermediates); empty uses the OS temp dir")
	maxSpillMB := flag.Int64("max-spill-mb", 0, "disk budget per out-of-core run's scratch files in MiB; over it the request is 413; 0 disables")
	maxResidentMB := flag.Int64("max-resident-mb", 0, "heap budget for one out-of-core run's resident intermediates in MiB; 0 disables")
	dataDir := flag.String("data-dir", "", "directory for the durable job WAL and persisted graphs; empty keeps jobs in memory only")
	checkpointIters := flag.Int("checkpoint-iters", 25, "kernel iterations between WAL checkpoints of durable async jobs")
	timeout := flag.Duration("timeout", 60*time.Second, "synchronous request deadline")
	jobTTL := flag.Duration("job-ttl", 15*time.Minute, "retention of finished async job results; 0 keeps them until evicted")
	uploadTTL := flag.Duration("upload-ttl", 15*time.Minute, "idle timeout for chunked-upload sessions; 0 keeps abandoned sessions forever")
	peers := flag.String("peers", "", "comma-separated cluster peer URLs (http://host:port, optional *weight), this node included; empty runs single-node")
	self := flag.String("self", "", "this node's entry in -peers, as a URL or bare host:port (required with -peers)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "peer health-probe period")
	peerFail := flag.Int("peer-fail-threshold", 3, "consecutive failed probes before a peer is declared down")
	peerRecover := flag.Int("peer-recover-threshold", 2, "consecutive successful probes before a down peer recovers")
	proxyAttempts := flag.Int("proxy-attempts", 4, "total tries per request forwarded to a peer")
	proxyTimeout := flag.Duration("proxy-timeout", 10*time.Second, "deadline per forwarding attempt")
	proxyMaxWait := flag.Duration("proxy-max-wait", 5*time.Second, "cap on backoff (and honored Retry-After) between forwarding attempts")
	breakerFail := flag.Int("breaker-fail-threshold", 5, "consecutive outbound failures before a peer's circuit breaker opens")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker rejection window before one half-open trial request")
	retryBudgetRatio := flag.Float64("retry-budget-ratio", 0.1, "retry tokens earned per outbound request (sustained retry fraction)")
	retryBudgetBurst := flag.Float64("retry-budget-burst", 10, "maximum banked retry tokens")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain deadline")
	preload := flag.String("preload", "", "edge-list file to register at startup (logs its graph id)")
	logFormat := flag.String("log-format", "json", "log output format: json or text")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	traceLog := flag.String("trace-log", "", "append one JSON span tree per clustering run to this file")
	traceRing := flag.Int("trace-ring", 64, "recent traces retained in memory for GET /v1/jobs/{id}/trace")
	traceRingMB := flag.Int64("trace-ring-mb", 16, "byte cap of the in-memory trace ring in MiB (rendered JSON size); exported as symclusterd_trace_ring_bytes")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty disables)")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logFormat, obs.ParseLevel(*logLevel))
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	logger.Info("starting symclusterd",
		"version", obs.Version, "go_version", runtime.Version(),
		"workers", *workers, "cache_mb", *cacheMB, "scan", matrix.ScanBody())

	if spec := os.Getenv("SYMCLUSTER_FAULTS"); spec != "" {
		if err := faultinject.FromSpec(spec); err != nil {
			fatal("SYMCLUSTER_FAULTS invalid", "err", err)
		}
		logger.Warn("CHAOS: faults armed — do not run production traffic",
			"sites", fmt.Sprint(faultinject.Sites()))
	}

	var traceFile *os.File
	if *traceLog != "" {
		var err error
		traceFile, err = os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal("opening trace log", "path", *traceLog, "err", err)
		}
		defer traceFile.Close()
	}
	var sink *obs.TraceSink
	if traceFile != nil {
		sink = obs.NewTraceSink(traceFile, *traceRing)
	} else {
		sink = obs.NewTraceSink(nil, *traceRing)
	}
	if *traceRingMB > 0 {
		sink.SetMaxBytes(*traceRingMB << 20)
	}

	var clusterCfg *server.ClusterConfig
	if *peers != "" {
		peerList, err := cluster.ParsePeers(*peers)
		if err != nil {
			fatal("parsing -peers", "err", err)
		}
		selfName := *self
		if strings.Contains(selfName, "://") {
			p, err := cluster.ParsePeer(selfName)
			if err != nil {
				fatal("parsing -self", "err", err)
			}
			selfName = p.Name
		}
		if selfName == "" {
			fatal("-peers requires -self")
		}
		clusterCfg = &server.ClusterConfig{
			Self:                 selfName,
			Peers:                peerList,
			ProbeInterval:        *probeInterval,
			FailThreshold:        *peerFail,
			RecoverThreshold:     *peerRecover,
			ProxyAttempts:        *proxyAttempts,
			ProxyTimeout:         *proxyTimeout,
			ProxyMaxWait:         *proxyMaxWait,
			BreakerFailThreshold: *breakerFail,
			BreakerCooldown:      *breakerCooldown,
			RetryBudgetRatio:     *retryBudgetRatio,
			RetryBudgetBurst:     *retryBudgetBurst,
		}
		logger.Info("cluster mode", "self", selfName, "peers", len(peerList))
	}

	srv, err := server.New(server.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheBytes:       *cacheMB << 20,
		MaxBodyBytes:     *maxBodyMB << 20,
		MaxJobBytes:      *maxJobMB << 20,
		MaxQueueBytes:    *maxQueueMB << 20,
		SpillDir:         *spillDir,
		MaxSpillBytes:    *maxSpillMB << 20,
		MaxResidentBytes: *maxResidentMB << 20,
		RequestTimeout:   *timeout,
		JobTTL:           *jobTTL,
		UploadTTL:        *uploadTTL,
		DataDir:          *dataDir,
		CheckpointIters:  *checkpointIters,
		Cluster:          clusterCfg,
		Logger:           logger,
		TraceSink:        sink,
	})
	if err != nil {
		fatal("initializing server", "err", err)
	}
	if *dataDir != "" {
		logger.Info("durable jobs enabled", "data_dir", *dataDir, "checkpoint_iters", *checkpointIters)
	}

	if *preload != "" {
		g, err := symcluster.ReadEdgeListFile(*preload)
		if err != nil {
			fatal("preload failed", "path", *preload, "err", err)
		}
		info := srv.RegisterGraph(g)
		logger.Info("preloaded graph", "path", *preload,
			"graph_id", info.ID, "nodes", info.Nodes, "edges", info.Edges)
	}

	if *debugAddr != "" {
		debugSrv := &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugMux(),
			ReadHeaderTimeout: 10 * time.Second,
			ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelError),
		}
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelError),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		fatal("serve failed", "err", err)
	case <-ctx.Done():
	}

	logger.Info("shutdown: draining", "timeout", drainTimeout.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("shutdown: http", "err", err)
	}
	if err := srv.Drain(shutdownCtx); err != nil {
		srv.Close()
		logger.Error("shutdown: drain incomplete", "err", err)
		os.Exit(1)
	}
	if err := srv.Close(); err != nil {
		logger.Warn("shutdown: closing job store", "err", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("serve", "err", err)
	}
	logger.Info("drained cleanly")
}
