package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	symcluster "symcluster"
	"symcluster/internal/csr"
	"symcluster/internal/jobstore"
	"symcluster/internal/obs"
	"symcluster/internal/pipeline"
)

// Config sizes the service. Zero values select the defaults noted on
// each field.
type Config struct {
	// Workers is the worker-pool size (default 2).
	Workers int
	// QueueDepth bounds tasks waiting for a worker (default 4×Workers).
	// When the queue is full, POST /v1/cluster sheds load with 503.
	QueueDepth int
	// CacheBytes budgets the symmetrization cache (default 256 MiB).
	CacheBytes int64
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// RequestTimeout bounds each synchronous clustering run, and each
	// hop to a peer whose caller set no deadline (default 60s). Async
	// jobs are not subject to it.
	RequestTimeout time.Duration
	// JobTTL expires finished async jobs after this duration so an
	// unattended daemon does not hold results forever. Zero or negative
	// disables expiry (the default; cmd/symclusterd sets 15m).
	JobTTL time.Duration
	// MaxJobBytes rejects clustering requests whose estimated working
	// set exceeds this many bytes with 413 (admission control). Zero or
	// negative disables the check (the default; cmd/symclusterd sets
	// 4 GiB).
	MaxJobBytes int64
	// DataDir, when set, makes jobs durable: every job mutation is
	// journaled to a WAL under this directory, uploaded graphs are
	// persisted alongside it, and on startup interrupted jobs are
	// replayed and re-enqueued. Empty (the default) keeps the job store
	// purely in memory.
	//
	// In cluster mode (Cluster non-nil) DataDir is the SHARED data
	// root: each node journals under DataDir/node-<name>, holding that
	// journal's lock while it lives, and once a peer's process is gone
	// the survivor that takes its lock adopts the WAL to finish the
	// peer's jobs from their checkpoints (DESIGN.md §14).
	DataDir string
	// UploadTTL expires chunked-upload sessions idle longer than this:
	// their scratch (ingest buffers, spill runs) is reaped and further
	// requests against the session 404. Zero or negative disables
	// expiry (the default; cmd/symclusterd sets 15m).
	UploadTTL time.Duration
	// Cluster, when non-nil, runs this node as a member of a static
	// multi-node cluster: graphs are sharded over the peers by
	// fingerprint, mis-routed requests are forwarded to their owner,
	// and (with DataDir) the jobs of a peer whose process is gone fail
	// over to the member that takes its journal lock. Nil (the default)
	// is single-node mode, which behaves exactly as if the cluster code
	// did not exist.
	Cluster *ClusterConfig
	// SpillDir hosts out-of-core scratch: upload ingest state, external
	// sort runs, and the intermediate files of out-of-core
	// symmetrizations. Empty means the OS temp dir.
	SpillDir string
	// MaxSpillBytes is the hard disk budget for one out-of-core run's
	// scratch files. Requests whose projected spill exceeds it are
	// rejected with 413 — the only size rejection left for out-of-core
	// capable methods. Zero or negative disables the check (the
	// default).
	MaxSpillBytes int64
	// MaxResidentBytes bounds the heap-resident intermediates of each
	// out-of-core symmetrization (the pruned products, which cannot
	// live on disk); a run that exceeds it fails with
	// core.ErrResidentBudget. Zero or negative disables the bound (the
	// default).
	MaxResidentBytes int64
	// CheckpointIters is how often (in kernel iterations) a durable
	// async job snapshots its kernel state to the WAL so a crash or
	// drain resumes mid-run instead of starting over (default 25; only
	// meaningful with DataDir).
	CheckpointIters int
	// Logger receives request and lifecycle logs; nil means
	// slog.Default(). cmd/symclusterd installs a JSON-handler logger.
	Logger *slog.Logger
	// TraceSink receives every span tree the daemon records — runs, hop
	// segments, upload finalizes — as JSONL when it has a writer, and
	// keeps the hop segments in its ring for peers stitching a job's
	// trace (see obs.NewTraceSink). Nil means a ring-only sink of 64.
	TraceSink *obs.TraceSink
}

// retainJobs caps the finished jobs a node keeps (the oldest-finished
// go first); -job-ttl bounds their age.
const retainJobs = 256

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.CheckpointIters <= 0 {
		c.CheckpointIters = 25
	}
	return c
}

// errPreempted is the cancellation cause Drain attaches when it
// preempts a durable job that would not finish within the drain
// deadline; the completion path sees it and requeues the job (it was
// checkpointed, so the next boot resumes it) instead of marking it
// canceled.
var errPreempted = errors.New("server: job preempted by drain")

// Server is the symclusterd service: a graph registry, a symmetrization
// cache, a bounded worker pool and an async job store behind a JSON
// HTTP API. Construct with New, mount Handler, stop with Drain.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	pool      *Pool
	cache     *Cache
	jobs      *jobstore.Store // journaled (Durable) only with DataDir
	metrics   *Metrics
	traces    *obs.TraceSink
	startTime time.Time

	// ingestMemBytes is the in-memory buffer of streaming graph
	// ingestion and of out-of-core transposes; past it, sorted runs
	// spill to SpillDir. preemptGrace bounds how long Drain waits, after
	// cancelling stuck jobs, for their kernels to write a final
	// checkpoint and return. No caller tunes either; tests shrink or
	// stretch them before the first request.
	ingestMemBytes int64
	preemptGrace   time.Duration

	graphMu  sync.RWMutex
	graphs   map[string]*registeredGraph
	draining atomic.Bool

	// coord is the cluster coordinator (routing, failover);
	// nil in single-node mode, and every cluster behavior is gated on
	// it so single-node semantics are untouched.
	coord *coordinator
	// stop ends background loops (the upload-TTL and adoption sweeps);
	// closeOnce makes Close idempotent about it.
	stop      chan struct{}
	closeOnce sync.Once

	// uploadMu guards uploads, the in-flight chunked graph uploads
	// (streaming ingest sessions keyed by upload id).
	uploadMu  sync.Mutex
	uploads   map[string]*uploadSession
	uploadSeq atomic.Int64

	// jobMu guards jobCancels, the cancel funcs of in-flight async jobs
	// (keyed by job id) that Drain preempts; jobWG tracks their
	// completion goroutines so Drain can wait for the final journal
	// append (Finish or Requeue) before the process exits.
	jobMu      sync.Mutex
	jobCancels map[string]context.CancelCauseFunc
	jobWG      sync.WaitGroup
}

// registeredGraph is one uploaded graph plus the precomputed identity
// used in cache keys and the degree-profile stats the registry cost
// models consume for admission control (computed once at registration,
// O(nnz)).
//
// csrPath, when non-empty, is the graph's binary CSR file on disk —
// the zero-copy input of out-of-core runs. mapped is non-nil when the
// adjacency itself is a memory-mapped view of that file (chunked
// uploads and graphs reloaded from a durable store): the heap never
// held the matrix, and Server.Close unmaps it. ownDir, when set, is a
// scratch directory owning the file (non-durable uploads) removed on
// Close.
//
// heapGraph and openGraphFile load one; addGraph fills info and stats.
type registeredGraph struct {
	info        GraphInfo
	graph       *symcluster.DirectedGraph
	fingerprint uint64
	stats       pipeline.GraphStats
	csrPath     string
	mapped      *csr.Mapped
	ownDir      string
}

// New builds a ready-to-serve Server. With Config.DataDir set it opens
// (or creates) the WAL-backed job store there, reloads persisted
// graphs, replays interrupted jobs and re-enqueues them; the error
// covers a corrupt or unwritable data directory.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:            cfg,
		mux:            http.NewServeMux(),
		pool:           NewPool(cfg.Workers, cfg.QueueDepth),
		cache:          NewCache(cfg.CacheBytes),
		metrics:        NewMetrics(),
		traces:         cfg.TraceSink,
		startTime:      time.Now(),
		ingestMemBytes: 64 << 20,
		preemptGrace:   5 * time.Second,
		jobCancels:     make(map[string]context.CancelCauseFunc),
		uploads:        make(map[string]*uploadSession),
		stop:           make(chan struct{}),
	}
	if s.traces == nil {
		s.traces = obs.NewTraceSink(nil, 64)
	}
	s.graphs = make(map[string]*registeredGraph)

	if cfg.Cluster != nil {
		coord, err := newCoordinator(s, cfg.Cluster)
		if err != nil {
			return nil, err
		}
		s.coord = coord
	}

	// In cluster mode the configured DataDir is the shared root; each
	// node keeps its own WAL and graphs under a per-node subdirectory,
	// which is exactly what a surviving peer adopts on failover.
	dataDir := cfg.DataDir
	if s.coord != nil && dataDir != "" {
		dataDir = filepath.Join(dataDir, nodeDirName(s.coord.self.Name))
	}
	s.jobs = jobstore.NewMemory()
	if dataDir != "" {
		st, err := jobstore.Open(dataDir)
		if err != nil {
			return nil, fmt.Errorf("opening job store: %w", err)
		}
		s.jobs = st
		if err := s.loadGraphs(); err != nil {
			st.Close()
			return nil, err
		}
	}
	s.jobs.Retain, s.jobs.TTL = retainJobs, cfg.JobTTL
	s.metrics.bind(s)

	s.routes()

	// Re-enqueue replayed jobs after routes are up; the goroutine
	// retries briefly when the replayed backlog alone overflows the
	// queue, so a deep backlog drains instead of failing.
	if pending := s.jobs.PendingJobs(); len(pending) > 0 {
		go s.resumeJobs(pending)
	}
	if cfg.UploadTTL > 0 {
		go s.sweepUploads()
	}
	if s.coord != nil && s.jobs.Durable() {
		s.coord.sweeping.Add(1)
		go s.coord.sweepAdoptions()
	}
	return s, nil
}

// loadGraphs re-registers every graph persisted under the data dir by
// memory-mapping its binary CSR file: the adjacency never touches the
// heap.
func (s *Server) loadGraphs() error {
	ctx := bootContext()
	return s.jobs.ForEachGraphFile(func(id, path string) error {
		rg, err := openGraphFile(ctx, path)
		if err != nil {
			return fmt.Errorf("reloading graph %s: %w", id, err)
		}
		s.addGraph(rg)
		return nil
	})
}

// resumeJobs relaunches jobs that were pending or running when the
// previous process died, or that a dead peer left behind. A request
// that no longer validates (e.g. the pipeline lost a stage) or no
// longer fits the byte budget fails its job rather than retrying
// forever.
func (s *Server) resumeJobs(pending []*jobstore.JobRecord) {
	ctx := bootContext()
	for _, job := range pending {
		prep, tk, err := s.readmit(ctx, job)
		switch {
		case errors.Is(err, ErrPoolClosed):
			return // shutting down again; the job stays pending in the WAL
		case err != nil:
			s.finishJob(job.ID, nil, fmt.Errorf("replaying request: %w", err))
		default:
			s.launchJob(ctx, job, prep, tk)
			s.log().Info("replayed job re-enqueued", "job", job.ID)
		}
	}
}

// readmit resolves a journaled request again and admits it, waiting out
// a full queue: the replayed backlog itself is the contention, so a
// deep one drains instead of failing.
func (s *Server) readmit(ctx context.Context, job *jobstore.JobRecord) (*preparedRun, ticket, error) {
	var req ClusterRequest
	if err := json.Unmarshal(job.Request, &req); err != nil {
		return nil, ticket{}, err
	}
	prep, err := s.prepareRun(&req)
	if err != nil {
		return nil, ticket{}, err
	}
	for {
		tk, err := s.admit(ctx, prep)
		if !errors.Is(err, ErrQueueFull) {
			return prep, tk, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// log returns the configured logger, or slog.Default().
func (s *Server) log() *slog.Logger {
	if s.cfg.Logger != nil {
		return s.cfg.Logger
	}
	return slog.Default()
}

// routeTable is the whole HTTP surface, one row per pattern: the
// handler, how the node that serves a request is found (nil: always
// this one; see routing.go) and the route's flags.
func (s *Server) routeTable() []route {
	var local *owner
	graphBody := &owner{by: graphInBody}
	graphPath := &owner{by: graphInPath, localFirst: true}
	job := &owner{by: idSuffix, noun: "job", adoptable: true}
	upload := &owner{by: idSuffix, noun: "upload"}
	return []route{
		// A new graph's owner is unknown until its body is parsed, so
		// registration and finalize place it themselves (placeGraph).
		{"POST /v1/graphs", s.handleRegisterGraph, local, stopsOnDrain},
		{"GET /v1/graphs/{id}", s.handleGetGraph, graphPath, 0},
		{"POST /v1/graphs/uploads", s.handleUploadCreate, local, stopsOnDrain},
		{"POST /v1/graphs/uploads/{id}", s.handleUploadAppend, upload, 0},
		{"POST /v1/graphs/uploads/{id}/finalize", s.handleUploadFinalize, upload, 0},
		{"DELETE /v1/graphs/uploads/{id}", s.handleUploadAbort, upload, 0},
		{"POST /v1/cluster", s.handleCluster, graphBody, stopsOnDrain},
		{"GET /v1/jobs/{id}", s.handleGetJob, job, 0},
		{"GET /v1/jobs/{id}/trace", s.handleJobTrace, job, 0},
		{"GET /v1/jobs/{id}/stats", s.handleJobStats, job, 0},
		{"GET /v1/cluster/status", s.handleClusterStatus, local, 0},
		{"GET /healthz", s.handleHealthz, local, stopsOnDrain},
		{"GET /metrics", s.handleMetrics, local, 0},
		{"GET " + internalStatusPath, s.handleInternalStatus, local, peerOnly},
		{"GET " + internalTracesPrefix + "{id}", s.handleInternalTraces, local, peerOnly},
		{"PUT " + internalCSRPath, s.handleInternalGraphCSR, local, peerOnly | uncapped},
	}
}

// routes mounts the table. A single node mounts the handlers as they
// are; a cluster member wraps the rows another shard may own.
func (s *Server) routes() {
	for _, rt := range s.routeTable() {
		h := rt.handler
		if s.coord == nil && rt.flags&peerOnly != 0 {
			continue
		}
		if s.coord != nil && rt.owner != nil {
			h = s.coord.route(rt)
		}
		s.mux.HandleFunc(rt.pattern, s.instrument(rt, h))
	}
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops accepting new work and waits for the queue and running
// jobs to finish, bounded by ctx. Call after http.Server.Shutdown so
// no new requests race the drain. It is the SIGTERM half of graceful
// shutdown; safe to call more than once.
//
// In durable mode a drain deadline does not abandon work: jobs still
// running when ctx expires are preempted — their contexts are
// cancelled with a cause the completion path recognizes, the kernels
// write a final checkpoint at the next iteration boundary, and the
// jobs are requeued in the WAL so the next boot resumes them.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	err := s.pool.Close(ctx)
	if err == nil || !s.jobs.Durable() {
		return err
	}

	// Deadline passed with work in flight: preempt.
	s.jobMu.Lock()
	n := len(s.jobCancels)
	for _, cancel := range s.jobCancels {
		cancel(errPreempted)
	}
	s.jobMu.Unlock()
	s.log().Info("drain deadline passed; preempting jobs for checkpoint", "jobs", n)

	graceCtx, cancel := context.WithTimeout(bootContext(), s.preemptGrace)
	defer cancel()
	if werr := s.pool.Wait(graceCtx); werr != nil {
		return werr
	}
	// Workers are done; wait for the completion goroutines to journal
	// the requeues (they are fast — one WAL append each).
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-graceCtx.Done():
		return graceCtx.Err()
	}
}

// Close stops the background sweepers (waiting out an adoption pass),
// aborts in-flight uploads, unmaps memory-mapped graphs and releases the
// WAL (durable mode only). Call after Drain: the mappings are unmapped
// here precisely because no job can still be reading them.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { close(s.stop) })
	if s.coord != nil {
		s.coord.sweeping.Wait()
	}
	s.uploadMu.Lock()
	for id, sess := range s.uploads {
		sess.abort()
		delete(s.uploads, id)
	}
	s.uploadMu.Unlock()

	s.graphMu.Lock()
	for _, rg := range s.graphs {
		rg.release()
	}
	s.graphMu.Unlock()

	return s.jobs.Close()
}

// Draining reports whether Drain has begun (healthz turns 503 so load
// balancers stop routing here).
func (s *Server) Draining() bool { return s.draining.Load() }

// RegisterGraph adds a graph directly (used by tests and embedders; the
// HTTP path is POST /v1/graphs). The id is derived from the structural
// fingerprint, so registering the same graph twice is idempotent. In
// durable mode its binary CSR is persisted under the data dir so
// replayed jobs find their graph after a restart.
func (s *Server) RegisterGraph(g *symcluster.DirectedGraph) GraphInfo {
	return s.install(heapGraph(g))
}

// heapGraph loads a parsed graph, making the one full pass over it
// that its fingerprint costs.
func heapGraph(g *symcluster.DirectedGraph) *registeredGraph {
	return &registeredGraph{graph: g, fingerprint: g.Fingerprint()}
}

// openGraphFile loads a binary CSR file by memory-mapping it — the
// adjacency never touches the heap — once its CRCs check out.
func openGraphFile(ctx context.Context, path string) (*registeredGraph, error) {
	mp, err := csr.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	g, err := symcluster.NewDirectedGraph(mp.View(), nil)
	if err != nil {
		mp.Close()
		return nil, err
	}
	return &registeredGraph{graph: g, fingerprint: g.Fingerprint(), csrPath: path, mapped: mp}, nil
}

// release drops what a graph holds outside the heap: its mapping, and
// the scratch directory owning its file.
func (rg *registeredGraph) release() {
	if rg.mapped != nil {
		rg.mapped.Close()
		rg.mapped = nil
	}
	if rg.ownDir != "" {
		os.RemoveAll(rg.ownDir)
		rg.ownDir = ""
	}
}

// install registers a loaded graph on this node. In durable mode its
// binary CSR first reaches the store: a heap graph is written there, a
// mapped file moved in (the rename keeps the inode, so the live mapping
// stays valid — even when a content-identical file already sits there
// and ours is unlinked instead) and its scratch directory dropped.
func (s *Server) install(rg *registeredGraph) GraphInfo {
	if s.jobs.Durable() {
		id := graphID(rg.fingerprint)
		var err error
		path := s.jobs.GraphCSRPath(id)
		if rg.mapped == nil {
			err = csr.WriteMatrix(bootContext(), path, rg.graph.Adj)
		} else if path, err = s.jobs.AdoptGraphFile(id, rg.csrPath); err == nil {
			os.RemoveAll(rg.ownDir)
			rg.ownDir = ""
		}
		if err != nil {
			s.log().Error("persisting graph", "graph", id, "err", err)
		} else {
			rg.csrPath = path
		}
	}
	return s.addGraph(rg)
}

// addGraph puts one loaded graph in the registry under the id derived
// from its fingerprint. When the id is already registered the existing
// entry wins — the content is identical by construction — and a newly
// mapped duplicate is released (its scratch too) rather than swapped
// under running jobs.
func (s *Server) addGraph(rg *registeredGraph) GraphInfo {
	id := graphID(rg.fingerprint)
	rg.info = GraphInfo{
		ID:                id,
		Nodes:             rg.graph.N(),
		Edges:             rg.graph.M(),
		SymmetricFraction: rg.graph.SymmetricLinkFraction(),
	}
	s.graphMu.Lock()
	if prev, ok := s.graphs[id]; ok {
		if prev.csrPath == "" && rg.csrPath != "" {
			// Same graph, but now it has a file: remember it so future
			// jobs can run out-of-core against it.
			prev.csrPath = rg.csrPath
			if prev.mapped == nil {
				prev.mapped, prev.ownDir = rg.mapped, rg.ownDir
				rg.mapped, rg.ownDir = nil, ""
			}
		}
		s.graphMu.Unlock()
		rg.release()
		return prev.info
	}
	rg.stats = pipeline.StatsFor(rg.graph)
	s.graphs[id] = rg
	s.graphMu.Unlock()
	return rg.info
}

// lookupGraph fetches a registered graph by id.
func (s *Server) lookupGraph(id string) (*registeredGraph, bool) {
	s.graphMu.RLock()
	defer s.graphMu.RUnlock()
	rg, ok := s.graphs[id]
	return rg, ok
}
