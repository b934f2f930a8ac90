package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	symcluster "symcluster"
	"symcluster/internal/checkpoint"
	"symcluster/internal/graph"
	"symcluster/internal/jobstore"
	"symcluster/internal/multilevel"
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

// badGateway marks a hop to a peer that answered, but unusably: a
// rejection or an undecodable body.
func badGateway(format string, args ...any) error {
	return &apiError{code: http.StatusBadGateway, err: fmt.Errorf(format, args...)}
}

// unreachable marks a hop to peer that got no answer: a 503, which the
// caller retries until the owner is back.
func unreachable(peer string, err error) error {
	return &apiError{code: http.StatusServiceUnavailable, err: fmt.Errorf("owner %s unreachable: %w", peer, err)}
}

// errDraining refuses new work once Drain has begun.
var errDraining = errors.New("draining")

// httpStatus maps an error to a status code (DESIGN.md §9, "HTTP status
// map"). What an error wraps outranks the code a call site gave it: a
// draining node is a 503, an input that does not fit a 413.
func httpStatus(err error) int {
	var ae *apiError
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.As(err, &mbe), errors.Is(err, symcluster.ErrInputTooLarge):
		// The body cap, or one line over the parser buffer: the input
		// may be well-formed, it just does not fit.
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &ae):
		return ae.code
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
// error becomes a status, and the one place Retry-After is set: one
// second for any 503 except a draining node's, which is going away, not
// busy.
func refuse(w http.ResponseWriter, err error) {
	code := httpStatus(err)
	if code == http.StatusServiceUnavailable && !errors.Is(err, errDraining) {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, code, err)
}

// readGraphBody parses a POST /v1/graphs body into a graph: either the
// raw edge list (the CLI interchange format: "src dst [weight]" lines)
// or, for clients that prefer a single content type, a JSON body
// {"edges": "..."}.
func readGraphBody(r *http.Request, spareRows int64) (*symcluster.DirectedGraph, error) {
	var g *symcluster.DirectedGraph
	var err error
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var body struct {
			Edges string `json:"edges"`
		}
		if derr := json.NewDecoder(r.Body).Decode(&body); derr != nil {
			return nil, badRequest("decoding body: %w", derr)
		}
		g, err = graph.ReadEdgeListBudget(strings.NewReader(body.Edges), spareRows)
	} else {
		g, err = graph.ReadEdgeListBudget(r.Body, spareRows)
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
	g, err := readGraphBody(r, s.spareRows())
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

// handleCluster serves POST /v1/cluster. A synchronous request is run
// by this goroutine, on a pool slot, under the request context plus the
// configured timeout; an async request returns 202 with a job reference
// and runs detached from the client connection (but still on a pool
// slot, so drain waits for it).
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	req, err := decodeClusterRequest(r.Body)
	if err != nil {
		refuse(w, err)
		return
	}
	idemKey := r.Header.Get("Idempotency-Key")
	if idemKey != "" && !req.Async {
		refuse(w, badRequest("Idempotency-Key requires async: true (synchronous runs return their result inline and are never retried by job id)"))
		return
	}
	prep, err := s.prepareRun(req)
	if err != nil {
		refuse(w, err)
		return
	}

	if req.Async {
		s.startAsyncJob(w, r, req, idemKey, prep)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	var out *runOutcome
	tk, err := s.admit(ctx, prep)
	if err == nil {
		out, err = s.runTicket(ctx, tk, prep, nil)
	}
	if err != nil {
		s.logWorkerPanic(err)
		refuse(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out.Resp)
}

// decodeClusterRequest reads a POST /v1/cluster body: one JSON object
// holding ClusterRequest's fields and no others (FuzzClusterRequest).
func decodeClusterRequest(body io.Reader) (*ClusterRequest, error) {
	var req ClusterRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("decoding body: %w", err)
	}
	return &req, nil
}

// runTicket takes an admitted job from the queue to its outcome on the
// calling goroutine, under the run's trace: wait for a worker (the
// "queue" span), stop being "queued", run (runCluster). A context that
// ends while the job waits frees its slot at once and the kernel never
// starts; a deadline that expires there counts into
// symclusterd_deadline_rejected_total beside admission's rejections.
// begin, when set, runs on the worker just before the kernel (an async
// job journals its start there).
//
// The root "request" span nests the queue and the pipeline's stage
// spans. NewTraceFrom joins whatever identity the context carries: the
// entry node's traceparent on a proxied request, the pinned seed of an
// async job, or nothing (fresh root trace for a local sync run). The
// finished tree is exported — including on error, so failed runs stay
// visible — and is the outcome's Trace; the response, on success,
// embeds it and the accounting read off it.
func (s *Server) runTicket(ctx context.Context, tk ticket, prep *preparedRun, begin func() error) (*runOutcome, error) {
	method := ""
	if prep.run.Sym != nil {
		method = prep.run.Sym.Name
	}
	tr := obs.NewTraceFrom(ctx)
	ctx, root := tr.StartRoot(ctx, "request",
		obs.A("graph_id", prep.rg.info.ID),
		obs.A("algorithm", prep.run.Cl.Name),
		obs.A("method", method))
	_, queue := obs.StartSpan(ctx, "queue")
	err := tk.slot.Wait(ctx)
	queue.EndErr(err)
	var run *clusterRun
	if err == nil {
		err = tk.slot.Run(ctx, func(ctx context.Context) (err error) {
			if begin != nil {
				if err := begin(); err != nil {
					return err
				}
			}
			run, err = s.runCluster(ctx, prep, tk.ooc)
			return err
		})
	} else if errors.Is(err, context.DeadlineExceeded) {
		s.metrics.deadlineRejected.Inc()
	}
	root.EndErr(err)
	out := &runOutcome{Trace: s.export(tr)}
	if err == nil {
		out.Resp = NewClusterResponse(prep.rg.info.ID, run.res, run.u, out.Trace)
	}
	return out, err
}

// startAsyncJob answers 202 with the job a repeated Idempotency-Key
// names, or with a new one. The body is identical for the first request
// and its duplicates: same job id, same location.
func (s *Server) startAsyncJob(w http.ResponseWriter, r *http.Request, req *ClusterRequest, idemKey string, prep *preparedRun) {
	id, existing := s.jobs.LookupByKey(idemKey) // no job holds the empty key
	if !existing {
		var err error
		if id, err = s.submitAsync(r.Context(), req, idemKey, prep); err != nil {
			// A concurrent duplicate may have journaled the key while
			// this one was being refused: answer with its job.
			if id, existing = s.jobs.LookupByKey(idemKey); !existing {
				refuse(w, err)
				return
			}
		}
	}
	// In cluster mode the id is qualified with this node's name, so any
	// peer can route polls for it back here.
	id = s.qualifyID(id)
	writeJSON(w, http.StatusAccepted, JobRef{JobID: id, Location: "/v1/jobs/" + id})
}

// submitAsync admits, journals and launches one async job — in that
// order, so a refused submission is never journaled and a job id is
// only ever handed out for a job that holds a slot.
func (s *Server) submitAsync(reqCtx context.Context, req *ClusterRequest, idemKey string, prep *preparedRun) (string, error) {
	reqJSON, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	// The job must outlive the HTTP request: detach from the request
	// context but keep its values for tracing.
	ctx := context.WithoutCancel(reqCtx)
	tk, err := s.admit(ctx, prep)
	if err != nil {
		return "", err
	}
	job, existing, err := s.jobs.Admit(jobstore.JobRecord{IdempotencyKey: idemKey, Request: reqJSON})
	if err == nil && !existing {
		s.launchJob(ctx, job, prep, tk)
		return job.ID, nil
	}
	// Not journaled, or a concurrent duplicate won the key: the ticket
	// goes back unused.
	tk.slot.Release()
	if err != nil {
		return "", fmt.Errorf("journaling job: %w", err)
	}
	return job.ID, nil
}

// launchJob starts the goroutine that carries one admitted, journaled
// async job from the queue to its outcome, and wires its lifecycle:
// Start when a worker is free, checkpoints to the WAL while it runs
// (durable runs only: the sink is asked for only by a kernel that
// checkpoints — MLR-MCL's flow iteration, the random-walk and PageRank
// power iterations), and on completion either
// Finish — or, when Drain preempted it, Requeue, because its kernel
// checkpointed on the way out and the next boot resumes it. parent is
// already detached from any request.
func (s *Server) launchJob(parent context.Context, job *jobstore.JobRecord, prep *preparedRun, tk ticket) {
	// The cancel cause lets Drain preempt the job distinguishably from a
	// client cancel.
	jobCtx, cancel := context.WithCancelCause(parent)
	if s.jobs.Durable() {
		jobCtx = checkpoint.With(jobCtx, newJobSink(s.jobs, job.ID, s.cfg.CheckpointIters, job.Checkpoints))
	}
	// Pin the job's trace identity before it runs. A proxied submit
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
		// The outcome carries the span tree even when the run errored,
		// so failed jobs keep their trace.
		out, rerr := s.runTicket(jobCtx, tk, prep, func() error {
			if serr := s.jobs.Start(job.ID, seed.TraceID); serr != nil {
				return fmt.Errorf("journaling start: %w", serr)
			}
			return nil
		})
		s.logWorkerPanic(rerr)
		if errors.Is(rerr, context.Canceled) && errors.Is(context.Cause(jobCtx), errPreempted) {
			// Drain preempted the run after its final checkpoint;
			// pending in the WAL means the next boot picks it up.
			if qerr := s.jobs.Requeue(job.ID); qerr != nil {
				s.log().Error("requeueing preempted job", "job", job.ID, "err", qerr)
			}
			return
		}
		s.finishJob(job.ID, out, rerr)
	}()
}

// runOutcome is what one clustering run leaves behind: the response
// (nil when the run failed) and the run's span tree, which survives
// errors so failed jobs keep their trace and accounting.
type runOutcome struct {
	Resp  *ClusterResponse
	Trace *obs.SpanNode
}

// preparedRun is a request resolved against the graph registry and the
// pipeline registry, not yet admitted.
type preparedRun struct {
	rg  *registeredGraph
	run *pipeline.Run
}

// prepareRun resolves a ClusterRequest against the registered graph and
// the pipeline registry. It happens before admission, so bad input is a
// 400 or 404 whatever the load.
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
	return &preparedRun{rg: rg, run: run}, nil
}

// symMemo is one request's view of the symmetrization cache: the
// pipeline's Memo over the graph the request names. Directed-input
// substrates never consult it (their runs have no symmetrize stage).
type symMemo struct {
	s     *Server
	graph uint64
}

func (m symMemo) key(sym *pipeline.Symmetrizer, opt pipeline.SymOptions) CacheKey {
	return CacheKey{Graph: m.graph, Method: sym.Name, Alpha: opt.Alpha, Beta: opt.Beta, Threshold: opt.Threshold}
}

func (m symMemo) Lookup(sym *pipeline.Symmetrizer, opt pipeline.SymOptions) (*symcluster.UndirectedGraph, *multilevel.Memo, bool) {
	return m.s.cache.Get(m.key(sym, opt))
}

func (m symMemo) Store(sym *pipeline.Symmetrizer, opt pipeline.SymOptions, u *symcluster.UndirectedGraph) {
	if m.s.cache.Put(m.key(sym, opt), u) {
		m.s.metrics.cacheObjectBytes.Observe(float64(GraphBytes(u)))
	}
}

// clusterRun is what a successful runCluster leaves for the response.
type clusterRun struct {
	res *symcluster.Clustering
	u   *symcluster.UndirectedGraph
}

// runCluster executes one resolved request over the symmetrization
// cache, under the run's root span (runTicket): the "symmetrize" and
// "cluster" stage spans nest beneath it, and the kernel spans the
// instrumented hot loops open beneath those.
//
// It runs on a pool slot, on the goroutine that waited for it; the
// context is threaded into both stages, whose kernels poll it at
// iteration and row-block boundaries, so a client disconnect or timeout
// frees the worker within one block of kernel work.
func (s *Server) runCluster(ctx context.Context, prep *preparedRun, ooc bool) (*clusterRun, error) {
	rg, run := prep.rg, prep.run
	if ooc {
		// Route the symmetrization out-of-core: operands become
		// memory-mapped files under the spill dir; the result is
		// byte-identical to the in-core path (same cache key).
		s.metrics.oocJobs.Inc()
		ctx = symcluster.WithOutOfCore(ctx, symcluster.OutOfCoreConfig{
			InputPath:        rg.csrPath, // empty: input written to scratch first
			ScratchDir:       s.cfg.SpillDir,
			MaxResidentBytes: s.cfg.MaxResidentBytes,
			SpillMemBytes:    s.ingestMemBytes,
		})
	}
	res, u, err := run.Execute(ctx, rg.graph, symMemo{s, rg.fingerprint})
	if err != nil {
		return nil, err
	}
	// A run that finished after its context ended still failed its
	// caller.
	return &clusterRun{res, u}, ctx.Err()
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
// are retained precisely so the failure is debuggable). A done job's
// tree also rides its journaled result (trace.spans), so it answers
// across restarts; a failed or canceled job's tree is held in memory
// only.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Snapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	tree := job.Trace
	if tree == nil && job.Result != nil {
		var res struct {
			Trace *RunTrace `json:"trace"`
		}
		if json.Unmarshal(job.Result, &res) == nil && res.Trace != nil {
			tree = res.Trace.Spans
		}
	}
	switch {
	case tree == nil && job.Finished.IsZero():
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q has no trace yet (state %s)", job.ID, job.State))
		return
	case tree == nil:
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q finished (%s) with no trace retained", job.ID, job.State))
		return
	}
	// A root with a remote parent is the owner's half of a cross-node
	// trace (the entry node holds the proxy span): stitch in whatever
	// hop segments the peers retain before serving.
	if s.coord != nil && job.TraceID != "" && tree.ParentSpanID != "" {
		tree = s.coord.mergeTrace(r.Context(), job.TraceID, tree)
	}
	writeJSON(w, http.StatusOK, tree)
}

// healthzBody is the GET /healthz response. Self is present only in
// cluster mode: this node's peer name.
type healthzBody struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Self          string  `json:"self,omitempty"`
}

// handleHealthz reports liveness plus build identity and uptime;
// during drain it turns 503 so load balancers stop routing to this
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
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics serves the registry's text exposition, the per-state
// job gauge set from the job table first.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counts := s.jobs.Counts()
	for _, st := range []jobstore.State{jobstore.Pending, jobstore.Running, jobstore.Done, jobstore.Failed, jobstore.Canceled} {
		s.metrics.jobs.Set(float64(counts[st]), string(st))
	}
	s.metrics.reg.WriteText(w)
}
