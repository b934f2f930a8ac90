// Package server implements symclusterd, the HTTP clustering service
// over the paper's two-stage pipeline (Satuluri & Parthasarathy, EDBT
// 2011). Clients register directed graphs, then request clusterings by
// symmetrization method and substrate algorithm; the service caches
// symmetrized graphs — the expensive, reusable half of the pipeline —
// under a byte budget and bounds the compute at a fixed number of
// running and waiting jobs, with async jobs for large graphs.
//
// The package splits into:
//
//   - api.go        — JSON wire types and the one ClusterResponse
//     constructor, shared with cmd/symcluster -json
//   - server.go     — Server wiring, the route table, the graph registry
//     and lifecycle
//   - handlers.go   — the /v1 endpoint handlers, the status map and the
//     refusal writer; a cluster request is resolved and executed by
//     internal/pipeline (prepareRun resolves it, runTicket takes it
//     from its queue place to its outcome, runCluster traces it and
//     lends it the cache as the pipeline's Memo)
//   - upload.go     — chunked graph upload sessions
//   - admission.go  — admit: the ordered gates (byte budget, deadline,
//     queued-byte watermark, queue place) a job passes before it is
//     journaled or queued, and the ticket it then holds
//   - cache.go      — byte-budgeted LRU of symmetrized graphs
//   - pool.go       — the counted bound on running and waiting work:
//     Reserve / Slot.Wait / Slot.Run, panic isolation, no goroutines
//   - jobs.go, jobsink.go — wire rendering of async jobs and their
//     checkpoint sink (the job table itself is internal/jobstore)
//   - metrics.go    — every symclusterd_* family, in the one registry
//     /metrics renders
//   - middleware.go — recovery, body limits, the drain gate, request
//     accounting
//   - routing.go, graphpush.go, adoption.go — cluster mode: where a
//     request is served, moving a graph to its owner, taking over a dead
//     peer's journal
//   - obsplane.go   — job stats, federated status, cross-node traces
package server

import (
	symcluster "symcluster"
	"symcluster/internal/jobstore"
	"symcluster/internal/obs"
	"symcluster/internal/pipeline"
)

// ClusterRequest is the body of POST /v1/cluster. Method and Algorithm
// use the same names as the symcluster CLI flags: any canonical name
// or alias registered in the pipeline registry, case-insensitively.
type ClusterRequest struct {
	// GraphID identifies a graph previously registered via
	// POST /v1/graphs.
	GraphID string `json:"graph_id"`
	// Method is the symmetrization ("dd", "bib", "aat", "rw", or a
	// long-form alias such as "degree-discounted"). Ignored — and may
	// be empty — for algorithms that cluster the directed graph
	// directly (bestwcut, zhou).
	Method string `json:"method,omitempty"`
	// Algorithm is the clustering substrate ("mcl", "metis",
	// "graclus", "spectral", "bestwcut", "zhou", or an alias).
	Algorithm string `json:"algorithm"`
	// K is the target cluster count (required by every substrate
	// except mcl).
	K int `json:"k,omitempty"`
	// Alpha and Beta are the degree-discount exponents (dd only);
	// both default to 0.5 when omitted.
	Alpha *float64 `json:"alpha,omitempty"`
	Beta  *float64 `json:"beta,omitempty"`
	// Threshold prunes product entries below it (dd/bib only).
	Threshold float64 `json:"threshold,omitempty"`
	// Inflation overrides the MLR-MCL inflation directly.
	Inflation float64 `json:"inflation,omitempty"`
	// Seed drives all randomised choices.
	Seed int64 `json:"seed,omitempty"`
	// Async runs the request as a background job: the response is a
	// JobRef and the result is fetched from GET /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
}

// Spec is the part of the request that decides what is computed, in the
// form the pipeline resolves (pipeline.Resolve).
func (r *ClusterRequest) Spec() pipeline.Request {
	return pipeline.Request{
		Method: r.Method, Algorithm: r.Algorithm, K: r.K,
		Alpha: r.Alpha, Beta: r.Beta, Threshold: r.Threshold,
		Inflation: r.Inflation, Seed: r.Seed,
	}
}

// ClusterResponse is the result of a clustering run: the body of a
// synchronous POST /v1/cluster, the Result of a finished job, and the
// schema cmd/symcluster -json emits.
type ClusterResponse struct {
	GraphID string `json:"graph_id,omitempty"`
	// Method is the canonical name of the symmetrization that ran;
	// empty when the algorithm clustered the directed graph directly.
	Method    string `json:"method,omitempty"`
	Algorithm string `json:"algorithm"`
	// Nodes and UndirectedEdges describe the symmetrized graph the
	// substrate ran on; for directed-input algorithms Nodes is the
	// directed graph's node count and UndirectedEdges is 0.
	Nodes           int `json:"nodes"`
	UndirectedEdges int `json:"undirected_edges"`
	// K is the number of clusters found; Assign maps node → cluster.
	K      int   `json:"k"`
	Assign []int `json:"assign"`
	// CacheHit reports whether the symmetrized graph came from the
	// cache (always false for cmd/symcluster).
	CacheHit bool `json:"cache_hit"`
	// SymmetrizeMillis and ClusterMillis are wall-clock stage times.
	SymmetrizeMillis float64 `json:"symmetrize_millis"`
	ClusterMillis    float64 `json:"cluster_millis"`
	// Trace is the registry's per-stage trace: canonical stage names,
	// wall-clock timings, and the symmetrized edge count.
	Trace *symcluster.StageTrace `json:"trace,omitempty"`
	// Stats is the run's resource accounting (queue wait, per-stage
	// wall/CPU/allocation, cache and spill activity); see
	// obs.JobStatsSnapshot for the schema. Present on daemon responses
	// and on cmd/symcluster -json output.
	Stats *obs.JobStatsSnapshot `json:"stats,omitempty"`
	// AvgF is the micro-averaged best-match F-score against ground
	// truth, present only when truth is known (CLI -truth flag).
	AvgF *float64 `json:"avg_f,omitempty"`
}

// NewClusterResponse renders one finished pipeline run — what
// pipeline.Run.Execute returned, plus the run's resource accounting —
// as the wire response. It is the only place a ClusterResponse is
// assembled, for the daemon (graphID set) and for cmd/symcluster -json
// (graphID empty, u never from a cache) alike.
func NewClusterResponse(graphID string, res *symcluster.Clustering, u *symcluster.UndirectedGraph, trace *symcluster.StageTrace, stats *obs.JobStatsSnapshot) *ClusterResponse {
	resp := &ClusterResponse{
		GraphID:          graphID,
		Method:           trace.Symmetrizer,
		Algorithm:        trace.Clusterer,
		Nodes:            len(res.Assign),
		K:                res.K,
		Assign:           res.Assign,
		CacheHit:         trace.CacheHit,
		SymmetrizeMillis: trace.SymmetrizeMillis,
		ClusterMillis:    trace.ClusterMillis,
		Trace:            trace,
		Stats:            stats,
	}
	if u != nil {
		resp.UndirectedEdges = u.M()
	}
	return resp
}

// GraphInfo is the response of POST /v1/graphs and GET /v1/graphs/{id}.
type GraphInfo struct {
	ID                string  `json:"id"`
	Nodes             int     `json:"nodes"`
	Edges             int     `json:"edges"`
	SymmetricFraction float64 `json:"symmetric_fraction"`
}

// UploadRef is the 201 response of POST /v1/graphs/uploads: a chunked
// upload session for graphs too large for one request body.
type UploadRef struct {
	UploadID string `json:"upload_id"`
	// Location is the URL chunks are POSTed to (and /finalize appended
	// to when done).
	Location string `json:"location"`
}

// UploadStatus is the 202 response of each chunk append.
type UploadStatus struct {
	UploadID string `json:"upload_id"`
	// BytesReceived and Edges are running ingest totals across every
	// chunk so far.
	BytesReceived int64 `json:"bytes_received"`
	Edges         int64 `json:"edges"`
}

// UploadResult is the 201 response of POST
// /v1/graphs/uploads/{id}/finalize: the registered graph plus ingest
// statistics (spill runs and merged bytes are nonzero only when the
// upload exceeded the in-memory ingest buffer).
type UploadResult struct {
	Graph       GraphInfo `json:"graph"`
	Edges       int64     `json:"edges"`
	BytesIn     int64     `json:"bytes_in"`
	SpillRuns   int64     `json:"spill_runs"`
	MergedBytes int64     `json:"merged_bytes"`
}

// JobRef is the 202 response of an async POST /v1/cluster.
type JobRef struct {
	JobID string `json:"job_id"`
	// Location is the URL to poll for status and result.
	Location string `json:"location"`
}

// JobInfo is the response of GET /v1/jobs/{id}.
type JobInfo struct {
	JobID string `json:"job_id"`
	// State is one of "pending", "running", "done", "failed" or
	// "canceled".
	State string `json:"state"`
	// Result is present once State is "done".
	Result *ClusterResponse `json:"result,omitempty"`
	// Error is present once State is "failed".
	Error string `json:"error,omitempty"`
	// DurationMillis is the run time, present for finished jobs.
	DurationMillis float64 `json:"duration_millis,omitempty"`
	// TraceID is the distributed trace the job belongs to (assigned at
	// launch, stable across restarts and adoption); fetch the stitched
	// span tree from GET /v1/jobs/{id}/trace.
	TraceID string `json:"trace_id,omitempty"`
	// LinkTraceID, on a job adopted from a dead peer, is the trace id of
	// the original run on that peer.
	LinkTraceID string `json:"link_trace_id,omitempty"`
}

// NodeStatus is one node's row in the federated cluster status report
// (GET /v1/cluster/status) and the body of the internal self-report
// (GET /internal/v1/status). For a node this node could not reach, only
// Name, State and Error are set — the rest of the row degrades to zero
// rather than blocking the report.
type NodeStatus struct {
	Name string `json:"name"`
	// State is this node's probe verdict for the row: "up", "down" or
	// "half-open" ("up" for self).
	State         string  `json:"state"`
	Version       string  `json:"version,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	Draining      bool    `json:"draining,omitempty"`
	// Jobs is the node's async-job census by state.
	Jobs map[jobstore.State]int `json:"jobs,omitempty"`
	// QueueBytes is the summed working-set estimate of queued runs;
	// QueueDepth the tasks waiting for a worker.
	QueueBytes int64 `json:"queue_bytes"`
	QueueDepth int   `json:"queue_depth"`
	// WALBytes is the current size of the node's job journal (zero
	// without a data dir).
	WALBytes int64 `json:"wal_bytes"`
	// MappedCSRBytes is the bytes of binary CSR files the node has
	// memory-mapped; TraceRingBytes the rendered bytes retained in its
	// trace ring.
	MappedCSRBytes int64 `json:"mapped_csr_bytes"`
	TraceRingBytes int64 `json:"trace_ring_bytes"`
	// ShedTotal counts requests shed by the queued-byte watermark;
	// JobsAdopted the jobs taken over from dead peers' WALs.
	ShedTotal   int64 `json:"shed_total"`
	JobsAdopted int64 `json:"jobs_adopted"`
	// Breakers is this node's outbound circuit-breaker position per
	// peer ("closed", "half-open" or "open"); only peers whose breaker
	// has ever tripped — or been seeded — appear.
	Breakers map[string]string `json:"breakers,omitempty"`
	// RetryBudgetExhausted counts outbound retries this node denied
	// because its token-bucket retry budget was empty.
	RetryBudgetExhausted int64 `json:"retry_budget_exhausted"`
	// Error carries the fetch failure for degraded rows.
	Error string `json:"error,omitempty"`
}

// ClusterStatus is the response of GET /v1/cluster/status: the report's
// point of view (the node that assembled it) and one row per member.
type ClusterStatus struct {
	Self  string       `json:"self,omitempty"`
	Nodes []NodeStatus `json:"nodes"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
}
