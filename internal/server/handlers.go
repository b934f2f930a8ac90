package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	symcluster "symcluster"
	"symcluster/internal/checkpoint"
	"symcluster/internal/cluster"
	"symcluster/internal/jobstore"
	"symcluster/internal/obs"
	"symcluster/internal/pipeline"
)

// apiError carries an HTTP status through the run path so handlers can
// distinguish client mistakes (400/404) from service faults (500).
type apiError struct {
	code int
	err  error
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &apiError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// badGateway marks a failed hop to a peer.
func badGateway(format string, args ...any) error {
	return &apiError{code: http.StatusBadGateway, err: fmt.Errorf(format, args...)}
}

// errShed is returned when the queued-byte watermark is reached; it
// maps to 429 (the queue exists but is over budget — retry later),
// distinct from the 503 of a full task channel.
var errShed = errors.New("server: queued work over byte budget")

// errDraining refuses new work once Drain has begun.
var errDraining = errors.New("draining")

// httpStatus maps an error to a status code (DESIGN.md §9, "HTTP status
// map"). What an error wraps outranks the code a call site gave it: an
// open breaker is a 503, an input that does not fit a 413.
func httpStatus(err error) int {
	var ae *apiError
	var boe *cluster.BreakerOpenError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &boe), errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.As(err, &mbe), errors.Is(err, symcluster.ErrInputTooLarge):
		// The body cap, or one line over the parser buffer: the input
		// may be well-formed, it just does not fit.
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &ae):
		return ae.code
	case errors.Is(err, errShed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrPoolClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; 499 is the conventional (nginx) code.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// refuse answers a request this node will not serve: the one place an
// error becomes a status, and the one place Retry-After is set — an open
// breaker's remaining cooldown (rounded up to the header's one-second
// floor), one second for any other 429 or 503 except a draining node's,
// which is going away, not busy.
func refuse(w http.ResponseWriter, err error) {
	code := httpStatus(err)
	var boe *cluster.BreakerOpenError
	switch {
	case errors.As(err, &boe):
		secs := max(1, int((boe.RetryAfter+time.Second-1)/time.Second))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case errors.Is(err, errDraining):
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, code, err)
}

// readGraphBody parses a POST /v1/graphs body into a graph: either the
// raw edge list (the CLI interchange format: "src dst [weight]" lines)
// or, for clients that prefer a single content type, a JSON body
// {"edges": "..."}.
func readGraphBody(r *http.Request) (*symcluster.DirectedGraph, error) {
	var g *symcluster.DirectedGraph
	var err error
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var body struct {
			Edges string `json:"edges"`
		}
		if derr := json.NewDecoder(r.Body).Decode(&body); derr != nil {
			return nil, badRequest("decoding body: %w", derr)
		}
		g, err = symcluster.ReadEdgeList(strings.NewReader(body.Edges))
	} else {
		g, err = symcluster.ReadEdgeList(r.Body)
	}
	if err != nil {
		return nil, badRequest("parsing edge list: %w", err)
	}
	if g.N() == 0 {
		return nil, badRequest("empty graph")
	}
	return g, nil
}

// handleRegisterGraph ingests an edge list and registers it under a
// content-derived id, on the shard that owns it — unless the request
// was forwarded here, which pins it to this node (the one-hop guard).
func (s *Server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	g, err := readGraphBody(r)
	if err != nil {
		refuse(w, err)
		return
	}
	info, err := s.placeGraph(r.Context(), heapGraph(g), forwarded(r))
	if err != nil {
		refuse(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// handleGetGraph returns the registration info for one graph.
func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	rg, ok := s.lookupGraph(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, rg.info)
}

// handleCluster serves POST /v1/cluster. Synchronous requests run on
// the worker pool under the request context plus the configured
// timeout; async requests return 202 with a job reference and run
// detached from the client connection (but still on the pool, so drain
// waits for them).
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var req ClusterRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		refuse(w, badRequest("decoding body: %w", err))
		return
	}
	idemKey := r.Header.Get("Idempotency-Key")
	if idemKey != "" && !req.Async {
		refuse(w, badRequest("Idempotency-Key requires async: true (synchronous runs return their result inline and are never retried by job id)"))
		return
	}
	prep, err := s.prepareRun(&req)
	if err != nil {
		refuse(w, err)
		return
	}

	if req.Async {
		s.startAsyncJob(w, r, &req, idemKey, prep)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// Synchronous runs get per-job resource accounting too: the snapshot
	// lands in the response's stats block (there is no job record).
	ctx = obs.WithJobStats(ctx, obs.NewJobStats())
	wait, err := s.submitJob(ctx, prep.est, func(ctx context.Context) (any, error) { return prep.runner(ctx) })
	var res any
	if err == nil {
		res, err = wait()
	}
	if err != nil {
		s.logWorkerPanic(err)
		refuse(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res.(*runOutcome).Resp)
}

// submitJob pushes work through the deadline and shedding gates onto
// the pool.
//
// The deadline gate fast-fails two cases with 504 before the job costs
// anything: a context already expired at submit, and a remaining
// budget smaller than even a wildly optimistic estimate of the job's
// runtime (its admission byte estimate over Config.DeadlineThroughput)
// — the job could not possibly answer in time, so queueing it only
// delays work that still can. A third case is caught later by the
// pool: a deadline that expires while the task waits in the queue
// drops it at dequeue, before fn runs (so no kernel ever starts and
// the trace stays empty). All three count into
// symclusterd_deadline_rejected_total.
//
// The shedding gate is a high watermark over the summed working-set
// estimates of queued tasks: once queuedBytes is at or past
// MaxQueueBytes the request is shed with 429 — but the incoming job's
// own estimate is not counted, so a single large job on an idle queue
// always gets in. Accepted estimates are released by the pool's
// dequeue hook (run or dropped, either way the bytes stop being
// "queued").
func (s *Server) submitJob(ctx context.Context, est int64, fn func(ctx context.Context) (any, error)) (func() (any, error), error) {
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.IncDeadlineRejected()
		}
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		need := time.Duration(float64(est) / float64(s.cfg.DeadlineThroughput) * float64(time.Second))
		if remaining := time.Until(dl); remaining < need {
			s.metrics.IncDeadlineRejected()
			return nil, &apiError{code: http.StatusGatewayTimeout,
				err: fmt.Errorf("deadline too tight: %v remaining, but the job needs at least %v even at best-case throughput", remaining.Round(time.Millisecond), need.Round(time.Millisecond))}
		}
	}
	if max := s.cfg.MaxQueueBytes; max > 0 && s.queuedBytes.Load() >= max {
		s.shedTotal.Add(1)
		return nil, fmt.Errorf("%w: %d bytes queued, budget %d; retry later",
			errShed, s.queuedBytes.Load(), max)
	}
	s.queuedBytes.Add(est)
	// The dequeue hook is the queue-wait measurement point: it fires the
	// moment a worker pulls the task, before the run begins.
	js := obs.JobStatsFrom(ctx)
	submitted := time.Now()
	wait, err := s.pool.SubmitHooked(ctx, fn, func() {
		js.SetQueueWait(time.Since(submitted))
		s.queuedBytes.Add(-est)
	}, func(cause error) {
		if errors.Is(cause, context.DeadlineExceeded) {
			s.metrics.IncDeadlineRejected()
		}
	})
	if err != nil {
		s.queuedBytes.Add(-est)
		return nil, err
	}
	return wait, nil
}

// startAsyncJob creates (or, under a repeated Idempotency-Key, finds)
// the job record and launches it. The 202 body is identical for the
// first request and its duplicates: same job id, same location.
func (s *Server) startAsyncJob(w http.ResponseWriter, r *http.Request, req *ClusterRequest, idemKey string, prep *preparedRun) {
	reqJSON, err := json.Marshal(req)
	if err != nil {
		refuse(w, err)
		return
	}
	job, existing, err := s.jobs.Admit(jobstore.JobRecord{IdempotencyKey: idemKey, Request: reqJSON})
	if err != nil {
		refuse(w, fmt.Errorf("journaling job: %w", err))
		return
	}
	if !existing {
		if lerr := s.launchJob(r.Context(), job, prep); lerr != nil {
			s.finishJob(job.ID, nil, nil, lerr)
			refuse(w, lerr)
			return
		}
	}
	// In cluster mode the id is qualified with this node's name, so any
	// peer can route polls for it back here.
	id := s.qualifyID(job.ID)
	writeJSON(w, http.StatusAccepted, JobRef{
		JobID:    id,
		Location: "/v1/jobs/" + id,
	})
}

// launchJob submits one async job to the pool and wires its lifecycle:
// Start when a worker picks it up, checkpoints to the WAL while it
// runs (durable + checkpointable runs only), and on completion either
// Finish — or, when Drain preempted it, Requeue, because its kernel
// checkpointed on the way out and the next boot resumes it.
func (s *Server) launchJob(parent context.Context, job *jobstore.JobRecord, prep *preparedRun) error {
	// The job must outlive the HTTP request: detach from the request
	// context but keep its values for tracing. The cancel cause lets
	// Drain preempt the job distinguishably from a client cancel.
	jobCtx, cancel := context.WithCancelCause(context.WithoutCancel(parent))
	if prep.checkpointable && s.jobs.Durable() {
		jobCtx = checkpoint.With(jobCtx, newJobSink(s.jobs, job.ID, s.cfg.CheckpointIters, job.Checkpoints))
	}
	// Pin the job's trace identity before it is queued. A proxied submit
	// already carries the entry node's seed (joined by the middleware);
	// otherwise mint a fresh id. An adopted job additionally links back
	// to the dead owner's original trace. The id is journaled with the
	// start op so it survives restarts and adoption.
	seed, _ := obs.TraceSeedFrom(jobCtx)
	if seed.TraceID == "" {
		seed.TraceID = obs.NewTraceID()
	}
	if job.LinkTraceID != "" {
		seed.LinkTraceID = job.LinkTraceID
	}
	jobCtx = obs.WithTraceSeed(jobCtx, seed)
	js := obs.NewJobStats()
	jobCtx = obs.WithJobStats(jobCtx, js)
	wait, err := s.submitJob(jobCtx, prep.est, func(ctx context.Context) (any, error) {
		if serr := s.jobs.Start(job.ID, seed.TraceID); serr != nil {
			return nil, fmt.Errorf("journaling start: %w", serr)
		}
		return prep.runner(ctx)
	})
	if err != nil {
		cancel(nil)
		return err
	}
	s.jobMu.Lock()
	s.jobCancels[job.ID] = cancel
	s.jobMu.Unlock()

	s.jobWG.Add(1)
	go func() {
		defer s.jobWG.Done()
		defer func() {
			s.jobMu.Lock()
			delete(s.jobCancels, job.ID)
			s.jobMu.Unlock()
			cancel(nil)
		}()
		res, rerr := wait()
		s.logWorkerPanic(rerr)
		// The outcome carries the span tree even when the run
		// errored, so failed jobs keep their trace.
		out, _ := res.(*runOutcome)
		if errors.Is(rerr, context.Canceled) && errors.Is(context.Cause(jobCtx), errPreempted) {
			// Drain preempted the run after its final checkpoint;
			// pending in the WAL means the next boot picks it up.
			if qerr := s.jobs.Requeue(job.ID); qerr != nil {
				s.log().Error("requeueing preempted job", "job", job.ID, "err", qerr)
			}
			return
		}
		s.finishJob(job.ID, out, js.Snapshot(), rerr)
	}()
	return nil
}

// runOutcome is what one clustering run hands back through the pool:
// the response (nil when the run failed) and the run's span tree,
// which survives errors so failed jobs keep their trace.
type runOutcome struct {
	Resp  *ClusterResponse
	Trace *obs.SpanNode
}

// preparedRun is a validated, admitted request ready to submit: the
// closure that executes it (out-of-core when admission routed it so),
// the admission byte estimate (charged against the queue watermark
// while it waits), and whether any stage supports kernel checkpointing
// (gates installing a job sink).
type preparedRun struct {
	runner         func(ctx context.Context) (*runOutcome, error)
	est            int64
	checkpointable bool
}

// prepareRun resolves a ClusterRequest against the registered graph and
// the pipeline registry, admits it, and returns the closure that
// executes it. All of it happens before the request is queued so bad
// input never occupies a worker.
func (s *Server) prepareRun(req *ClusterRequest) (*preparedRun, error) {
	if req.GraphID == "" {
		return nil, badRequest("graph_id is required")
	}
	rg, ok := s.lookupGraph(req.GraphID)
	if !ok {
		return nil, &apiError{code: http.StatusNotFound, err: fmt.Errorf("unknown graph %q", req.GraphID)}
	}
	run, err := pipeline.Resolve(req.Spec(), rg.info.Nodes)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	est, ooc, err := s.admit(rg, run.Sym, run.Cl, req.K)
	if err != nil {
		return nil, err
	}
	return &preparedRun{
		runner: func(ctx context.Context) (*runOutcome, error) {
			if ooc {
				// Route the symmetrization out-of-core: operands become
				// memory-mapped files under the spill dir; the result is
				// byte-identical to the in-core path (same cache key).
				s.oocTotal.Add(1)
				ctx = symcluster.WithOutOfCore(ctx, symcluster.OutOfCoreConfig{
					InputPath:        rg.csrPath, // empty: input written to scratch first
					ScratchDir:       s.cfg.SpillDir,
					MaxResidentBytes: s.cfg.MaxResidentBytes,
					SpillMemBytes:    s.cfg.IngestMemBytes,
				})
			}
			return s.runCluster(ctx, rg, run)
		},
		est:            est,
		checkpointable: run.Cl.Checkpointable() || (run.Sym != nil && run.Sym.Checkpointable()),
	}, nil
}

// symMemo is one request's view of the symmetrization cache: the
// pipeline's Memo over the graph the request names. Directed-input
// substrates never consult it (their runs have no symmetrize stage).
type symMemo struct {
	s     *Server
	graph uint64
}

func (m symMemo) key(sym pipeline.Symmetrizer, opt pipeline.SymOptions) CacheKey {
	return CacheKey{Graph: m.graph, Method: sym.Name(), Alpha: opt.Alpha, Beta: opt.Beta, Threshold: opt.Threshold}
}

func (m symMemo) Lookup(sym pipeline.Symmetrizer, opt pipeline.SymOptions) (*symcluster.UndirectedGraph, bool) {
	return m.s.cache.Get(m.key(sym, opt))
}

func (m symMemo) Store(sym pipeline.Symmetrizer, opt pipeline.SymOptions, u *symcluster.UndirectedGraph) {
	m.s.cache.Put(m.key(sym, opt), u)
	m.s.metrics.ObserveCacheObject(GraphBytes(u))
}

// runCluster executes one resolved request over the symmetrization
// cache, under a fresh trace whose root "request" span nests the
// "symmetrize" and "cluster" stage spans (and, underneath those, the
// kernel spans the instrumented hot loops open). The finished tree is
// exported to the server's trace sink — including on error, so failed
// runs stay visible — and attached to the response's StageTrace on
// success. A stage that actually ran (symmetrize on a cache miss,
// cluster always) is observed into symclusterd_stage_seconds.
//
// It runs on a pool worker; the context is threaded into both stages,
// whose kernels poll it at iteration and row-block boundaries, so a
// client disconnect or timeout frees the worker within one block of
// kernel work.
func (s *Server) runCluster(ctx context.Context, rg *registeredGraph, run *pipeline.Run) (*runOutcome, error) {
	method := ""
	if run.Sym != nil {
		method = run.Sym.Name()
	}
	// NewTraceFrom joins whatever identity the context carries: the
	// entry node's traceparent on a proxied request, the pinned seed of
	// an async job, or nothing (fresh root trace for a local sync run).
	tr := obs.NewTraceFrom(ctx)
	ctx, root := tr.StartRoot(ctx, "request",
		obs.A("graph_id", rg.info.ID),
		obs.A("algorithm", run.Cl.Name()),
		obs.A("method", method))
	res, u, trace, err := run.Execute(ctx, rg.graph, symMemo{s, rg.fingerprint})
	if u != nil && !trace.CacheHit {
		s.metrics.ObserveStage("symmetrize", trace.Symmetrizer, trace.SymmetrizeMillis/1000)
	}
	if res != nil {
		s.metrics.ObserveStage("cluster", trace.Clusterer, trace.ClusterMillis/1000)
		// A run that finished after its context ended still failed its
		// caller.
		err = ctx.Err()
	}
	root.EndErr(err)
	out := &runOutcome{Trace: tr.Tree()}
	s.traces.Export(tr)
	if res != nil {
		trace.Spans = out.Trace
		out.Resp = NewClusterResponse(rg.info.ID, res, u, trace, obs.JobStatsFrom(ctx).Snapshot())
	}
	return out, err
}

// logWorkerPanic logs the captured stack of a recovered worker panic.
// Clients only ever see the short PanicError message; the stack stays
// server-side.
func (s *Server) logWorkerPanic(err error) {
	var pe *PanicError
	if errors.As(err, &pe) {
		s.log().Error("recovered worker panic",
			"panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
	}
}

// handleGetJob serves GET /v1/jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Snapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	body := renderJob(job)
	body.JobID = s.qualifyID(body.JobID)
	writeJSON(w, http.StatusOK, body)
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the span tree of a
// finished async job (including failed and canceled jobs, whose traces
// are retained precisely so the failure is debuggable).
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Snapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if job.Trace == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q has no trace yet", job.ID))
		return
	}
	tree := job.Trace
	// A root with a remote parent is the owner's half of a cross-node
	// trace (the entry node holds the proxy span): stitch in whatever
	// segments the peers retain before serving.
	if s.coord != nil && job.TraceID != "" && tree.ParentSpanID != "" {
		tree = s.coord.mergeTrace(r.Context(), job.TraceID, tree)
	}
	writeJSON(w, http.StatusOK, tree)
}

// healthzBody is the GET /healthz response. Peers is present only in
// cluster mode: this node's probe verdict ("up", "down", "half-open")
// for every member, itself included.
type healthzBody struct {
	Status        string            `json:"status"`
	Version       string            `json:"version"`
	GoVersion     string            `json:"go_version"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Self          string            `json:"self,omitempty"`
	Peers         map[string]string `json:"peers,omitempty"`
}

// handleHealthz reports liveness plus build identity and uptime;
// during drain it turns 503 so load balancers — and peer health
// checkers, which shift ownership away — stop routing to this
// instance.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := healthzBody{
		Status:        "ok",
		Version:       obs.Version,
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.startTime).Seconds(),
	}
	if s.coord != nil {
		body.Self = s.coord.self.Name
		body.Peers = s.coord.peerStates()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics serves the text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w, s)
}
